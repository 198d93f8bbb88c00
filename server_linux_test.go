package rbc_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"rbcsalted"
)

// TestNewServerFailureClosesTheState: a NewServer that fails after it
// opened the data directory (here the CA refuses its config) closes what
// it opened, so repeated failures leave no goroutine and no open file
// behind — neither the WAL's sync goroutine nor its segment.
func TestNewServerFailureClosesTheState(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	for range 3 {
		if n, err := rbc.NewServer(rbc.ServerConfig{DataDir: dir, MaxDistance: -1}); err == nil {
			n.Close()
			t.Fatal("NewServer accepted MaxDistance -1")
		}
	}
	// A closed goroutine may take a moment to be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("goroutines %d -> %d after three failed NewServer calls", goroutines, got)
	}
	if got := openFDs(); got > fds {
		t.Errorf("open files %d -> %d after three failed NewServer calls", fds, got)
	}
}
