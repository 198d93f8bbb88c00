package main

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// bootUntil starts bin and reads its stdout until a line contains one of
// marks, which it returns; "" means the server exited first. The server
// is killed if it reports nothing for 30 s.
func bootUntil(t *testing.T, bin string, args []string, marks ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr := new(bytes.Buffer)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		for _, m := range marks {
			if strings.Contains(sc.Text(), m) {
				return cmd, m, stderr
			}
		}
	}
	return cmd, "", stderr
}

// TestFollowerServesNoCA: a node started with -role follower never opens
// -listen, since an authentication it served would journal an RA key the
// primary never issued; it says it serves only replication. A -role other
// than primary or follower is refused at startup.
func TestFollowerServesNoCA(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "rbc-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const serving = "CA listening on "

	t.Run("follower", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd, mark, stderr := bootUntil(t, bin, []string{"-role", "follower", "-listen", addr, "-clients", ""},
			serving, "serving only replication")
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		switch mark {
		case serving:
			t.Fatal("a follower opened its CA listener")
		case "":
			cmd.Wait()
			t.Fatalf("follower exited before reporting its role: %s", stderr)
		}
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Fatalf("a follower accepts connections on -listen %s", addr)
		}
		// It runs until told to stop, and stops cleanly.
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("follower exit: %v\n%s", err, stderr)
		}
	})

	t.Run("unknown role", func(t *testing.T) {
		cmd, mark, stderr := bootUntil(t, bin, []string{"-role", "secondary", "-listen", "127.0.0.1:0", "-clients", ""}, serving)
		if mark != "" {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("a server with -role secondary started serving")
		}
		err := cmd.Wait()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("exit: %v, want a failure", err)
		}
		if !strings.Contains(stderr.String(), `-role "secondary"`) {
			t.Errorf("stderr %q does not name the refused role", stderr)
		}
	})
}
