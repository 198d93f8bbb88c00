package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/durable"
	"rbcsalted/internal/netproto"
	"rbcsalted/internal/puf"
)

// e2eServer is one run of the real rbc-server binary.
type e2eServer struct {
	cmd  *exec.Cmd
	addr string
	// boot is everything the server printed before the listening line
	// (enrollment and recovery reports).
	boot []string
}

// startServer launches bin and waits for its listening line.
func startServer(t *testing.T, bin string, args ...string) *e2eServer {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// If the server never reports listening, kill it so the scan below
	// terminates and the test fails with its output.
	watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	srv := &e2eServer{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "CA listening on "); i >= 0 {
			rest := line[i+len("CA listening on "):]
			if j := strings.Index(rest, " ("); j >= 0 {
				rest = rest[:j]
			}
			srv.addr = rest
			go io.Copy(io.Discard, stdout) // keep the pipe drained
			return srv
		}
		srv.boot = append(srv.boot, line)
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("server exited before listening\nstdout: %v\nstderr: %s", srv.boot, stderr.String())
	return nil
}

// kill SIGKILLs the server: no shutdown snapshot, no final fsync beyond
// what the WAL policy already guaranteed.
func (s *e2eServer) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// authenticate runs one full protocol round as the client device and
// returns the freshly rotated public key the CA registered.
func authenticate(t *testing.T, addr string, devSeed uint64) []byte {
	t.Helper()
	dev, err := puf.NewDevice(devSeed, 1024, quietProfile)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := netproto.Authenticate(conn, &core.Client{ID: "e2e", Device: dev}, netproto.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Authenticated {
		t.Fatal("client not authenticated")
	}
	if len(res.PublicKey) == 0 {
		t.Fatal("no rotated public key in result")
	}
	return res.PublicKey
}

// walLogicalEnd walks a WAL segment's frames (seq 8 | len 4 | crc 4 |
// payload) and returns the offset past the last one; zeros from there on
// are preallocated space.
func walLogicalEnd(data []byte) int {
	off := 0
	for off+16 <= len(data) {
		plen := int(binary.BigEndian.Uint32(data[off+8 : off+12]))
		if plen == 0 || off+16+plen > len(data) {
			break
		}
		off += 16 + plen
	}
	return off
}

// TestKillRestartDurability is the acceptance test for the durable
// subsystem: enroll and authenticate against `rbc-server -data-dir`,
// SIGKILL it, restart, and authenticate again with the rotated key —
// including once more after the WAL's final record is torn.
func TestKillRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restarts the real binary")
	}
	bin := filepath.Join(t.TempDir(), "rbc-server-e2e")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	args := []string{
		"-listen", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-sync", "always",
		"-clients", "e2e",
		"-enrollseed", "4242",
		"-baseerror", fmt.Sprintf("%g", quietProfile.BaseError),
		"-maxd", "3",
	}

	// Run 1: fresh enrollment, one authentication rotates the key.
	srv1 := startServer(t, bin, args...)
	pk1 := authenticate(t, srv1.addr, 4242)
	srv1.kill()

	// Run 2: recovery is pure WAL replay (the kill skipped the shutdown
	// snapshot). The client authenticates against the recovered, rotated
	// state — which re-rotates the key.
	srv2 := startServer(t, bin, args...)
	if boot := strings.Join(srv2.boot, "\n"); strings.Contains(boot, "torn tail") {
		t.Errorf("a preallocated segment's zero tail was reported as damage after kill -9:\n%s", boot)
	}
	pk2 := authenticate(t, srv2.addr, 4242)
	if bytes.Equal(pk1, pk2) {
		t.Fatal("public key did not rotate across restart")
	}
	srv2.kill()

	// Tear the WAL's tail: half a record's worth of garbage where the next
	// record would have gone, as if the crash had interrupted a write.
	// Under -sync always the segment is preallocated, so that is at its
	// logical end — past its last record — not at the end of the file.
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dataDir, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	end := walLogicalEnd(data)
	if end == 0 || end == len(data) {
		t.Fatalf("segment %s: %d bytes of records in a %d-byte file; expected records and a preallocated tail", last, end, len(data))
	}
	f, err := os.OpenFile(last, os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF, 0x00}, int64(end)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Run 3: recovery truncates the torn tail and serves the intact
	// prefix; the client still holds the matching key.
	srv3 := startServer(t, bin, args...)
	boot := strings.Join(srv3.boot, "\n")
	if !strings.Contains(boot, "torn tail repaired") {
		t.Errorf("boot output does not report the torn-tail repair:\n%s", boot)
	}
	pk3 := authenticate(t, srv3.addr, 4242)
	srv3.kill()

	// Final word: open the data directory in-process and confirm the RA
	// holds exactly the key from the last successful authentication.
	st, err := durable.Open(durable.Options{Dir: dataDir, Sync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	raKey, ok := st.RA().PublicKey("e2e")
	if !ok {
		t.Fatal("RA lost the client across kill/restart")
	}
	if !bytes.Equal(raKey, pk3) {
		t.Fatalf("RA key diverged from the client's:\n RA:     %x\n client: %x", raKey, pk3)
	}
	if !st.Images().Has("e2e") {
		t.Fatal("enrollment image lost")
	}
}

// TestEnrolStoreRoundTrip: an enrolment file written by `rbc-enroll
// -store` is read back by rbc-enroll itself (adding a client) and served
// by `rbc-server -store`, whose clients then authenticate.
func TestEnrolStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	bins := t.TempDir()
	server, enroll := filepath.Join(bins, "rbc-server"), filepath.Join(bins, "rbc-enroll")
	for bin, pkg := range map[string]string{server: ".", enroll: "../rbc-enroll"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	store := filepath.Join(t.TempDir(), "ca-images.db")
	key := strings.Repeat("5a", 32)
	for _, args := range [][]string{
		{"-clients", "e2e", "-seedbase", "4242"},
		{"-clients", "other", "-seedbase", "7"},
	} {
		args = append(args, "-store", store, "-key", key, "-baseerror", fmt.Sprintf("%g", quietProfile.BaseError))
		if out, err := exec.Command(enroll, args...).CombinedOutput(); err != nil {
			t.Fatalf("rbc-enroll %v: %v\n%s", args, err, out)
		}
	}

	srv := startServer(t, server, "-listen", "127.0.0.1:0", "-store", store, "-key", key, "-maxd", "3")
	defer srv.kill()
	if boot := strings.Join(srv.boot, "\n"); !strings.Contains(boot, "2 enrolled client(s)") {
		t.Fatalf("boot output does not report both enrolled clients:\n%s", boot)
	}
	authenticate(t, srv.addr, 4242)
}
