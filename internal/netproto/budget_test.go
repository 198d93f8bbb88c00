package netproto

import (
	"net"
	"runtime"
	"sync"
	"testing"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/puf"
)

// TestInlineAuthAllocBudget bounds what one whole authentication
// allocates, server and client together: a d=0 request over an in-memory
// connection against an in-memory CA. It is the in-tree guard for the
// benchmark's proc.allocs_per_auth and proc.alloc_kb_per_auth on
// inline_mem: the count read 456 when the image was unsealed twice
// through gob and every frame was two writes, and the bytes ~25.7 KB
// while every address map kept TernaryMask's 8 KiB array alive.
func TestInlineAuthAllocBudget(t *testing.T) {
	if cpu.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	store, err := core.NewImageStore([32]byte{21})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.NewCA(store, &cpu.Backend{Alg: core.SHA3, Workers: 1}, &aeskg.Generator{}, core.NewRA(), core.CAConfig{
		Alg:         core.SHA3,
		MaxDistance: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := puf.NewDevice(7, 1024, puf.Profile{}) // reads without error: every request is d=0
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll("alice", im); err != nil {
		t.Fatal(err)
	}
	server := &Server{CA: ca}
	client := &core.Client{ID: "alice", Device: dev}

	authenticate := func() {
		sc, cc := net.Pipe()
		var handled sync.WaitGroup
		handled.Add(1)
		go func() {
			defer handled.Done()
			server.handle(sc)
		}()
		res, err := Authenticate(cc, client, Latency{})
		cc.Close()
		handled.Wait()
		if err != nil || !res.Authenticated {
			t.Fatalf("authentication: %+v, %v", res, err)
		}
	}
	authenticate() // fill the pools
	const budget = 80
	if n := testing.AllocsPerRun(200, authenticate); n > budget {
		t.Errorf("one d=0 authentication allocates %.0f objects, budget %d", n, budget)
	} else {
		t.Logf("one d=0 authentication allocates %.0f objects", n)
	}

	// The byte budget, ~10% above the ~19.6 KB measured: the address map
	// a handshake selects lives in the session table for the session's
	// lifetime, so the size of what it pins matters as well as the count.
	const runs, byteBudget = 200, 21600
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		authenticate()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > byteBudget {
		t.Errorf("one d=0 authentication allocates %d bytes, budget %d", b, byteBudget)
	} else {
		t.Logf("one d=0 authentication allocates %d bytes", b)
	}
}
