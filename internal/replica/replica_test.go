package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/durable"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/wire"
)

func openState(t *testing.T, dir string) *durable.State {
	t.Helper()
	st, err := durable.Open(durable.Options{
		Dir:          dir,
		MasterKey:    [32]byte{9},
		SegmentBytes: 512, // rotate often so compaction has teeth
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// startPrimary serves st's WAL on a loopback listener.
func startPrimary(t *testing.T, st *durable.State, epoch uint64) (*Primary, string) {
	t.Helper()
	p := &Primary{
		State:     st,
		Epoch:     epoch,
		Heartbeat: 20 * time.Millisecond,
		ReapAfter: 2 * time.Second,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	return p, ln.Addr().String()
}

func newFollower(t *testing.T, st *durable.State, dir, id string) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerConfig{
		State:       st,
		ID:          id,
		MetaPath:    filepath.Join(dir, "replica-primary.meta"),
		AckInterval: 10 * time.Millisecond,
		ReadTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func openSession(t *testing.T, st *durable.State, id core.ClientID) core.Challenge {
	t.Helper()
	nonce, err := st.Sessions().NextNonce()
	if err != nil {
		t.Fatal(err)
	}
	ch := core.Challenge{
		Nonce:      nonce,
		AddressMap: make([]int, 256),
		Alg:        core.SHA3,
		IssuedAt:   time.Now(),
	}
	st.Sessions().Open(id, ch)
	return ch
}

// TestLiveReplication: records journaled on the primary appear on the
// follower, and the liveness table sees the follower acking. A session
// open on the primary is not replicated; the lease behind its nonce is.
func TestLiveReplication(t *testing.T) {
	pst := openState(t, t.TempDir())
	defer pst.Close()
	fdir := t.TempDir()
	fst := openState(t, fdir)
	defer fst.Close()

	p, addr := startPrimary(t, pst, 1)
	defer p.Close()
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.RunUntil(ctx, addr, 20*time.Millisecond)

	for i := 0; i < 30; i++ {
		id := core.ClientID(fmt.Sprintf("client-%02d", i))
		if err := pst.RA().Update(id, []byte(fmt.Sprintf("key-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ch := openSession(t, pst, "client-00")

	waitFor(t, "follower caught up", func() bool { return f.Cursor() >= pst.LastSeq() })
	for i := 0; i < 30; i++ {
		id := core.ClientID(fmt.Sprintf("client-%02d", i))
		key, ok := fst.RA().PublicKey(id)
		if !ok || string(key) != fmt.Sprintf("key-%02d", i) {
			t.Fatalf("follower missing %s (key %q ok=%v)", id, key, ok)
		}
	}
	if fst.Sessions().Len() != 0 {
		t.Fatalf("follower sessions = %d, want 0", fst.Sessions().Len())
	}
	if n := fst.Sessions().Nonce(); n < ch.Nonce {
		t.Fatalf("follower nonce %d below the primary's challenge %d", n, ch.Nonce)
	}

	waitFor(t, "follower acked", func() bool {
		fs := p.Followers()
		return len(fs) == 1 && fs[0].ID == "f1" && fs[0].Acked >= pst.LastSeq()
	})
}

// TestFollowerIngestsOldSessionRecords: a primary built before sessions
// stopped being durable ships SessionOpen and SessionClose records. A
// follower ingests them, raises its nonce high-water mark to the opened
// challenge's nonce, and opens no session.
func TestFollowerIngestsOldSessionRecords(t *testing.T) {
	pst := openState(t, t.TempDir())
	defer pst.Close()
	fdir := t.TempDir()
	fst := openState(t, fdir)
	defer fst.Close()

	// The primary's log holds what an older primary journaled for a
	// handshake and its answer.
	ch := core.Challenge{Nonce: 1 << 20, AddressMap: make([]int, 256), Alg: core.SHA3, IssuedAt: time.Now()}
	var payloads [][]byte
	for _, rec := range []*durable.Record{
		{Op: durable.OpSessionOpen, ID: "old", Challenge: &ch},
		{Op: durable.OpSessionClose, ID: "old"},
		{Op: durable.OpSessionOpen, ID: "older", Challenge: &ch},
	} {
		p, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	if _, err := pst.Ingest(payloads...); err != nil {
		t.Fatal(err)
	}

	p, addr := startPrimary(t, pst, 1)
	defer p.Close()
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.RunUntil(ctx, addr, 10*time.Millisecond) }()
	defer func() { cancel(); <-done }()
	waitFor(t, "follower caught up", func() bool { return f.Cursor() >= pst.LastSeq() })

	if n := fst.Sessions().Len(); n != 0 {
		t.Errorf("follower opened %d sessions from the old records", n)
	}
	if n := fst.Sessions().Nonce(); n < ch.Nonce {
		t.Errorf("follower nonce %d below the old record's %d", n, ch.Nonce)
	}
}

// TestSnapshotCatchup: a follower whose cursor was compacted away gets
// the synthesized full-state transfer, including reconciliation of
// entries the primary deleted while the follower was gone.
func TestSnapshotCatchup(t *testing.T) {
	pst := openState(t, t.TempDir())
	defer pst.Close()
	fdir := t.TempDir()
	fst := openState(t, fdir)
	defer fst.Close()

	// The follower holds a stale entry the primary deleted long ago.
	if err := fst.RA().Update("ghost", []byte("stale")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 40; i++ {
		id := core.ClientID(fmt.Sprintf("snap-%02d", i))
		if err := pst.RA().Update(id, []byte(fmt.Sprintf("key-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot + compaction: the WAL prefix is gone, TailFrom(0) is
	// impossible, so the primary must synthesize state.
	if err := pst.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := pst.TailFrom(0); !errors.Is(err, durable.ErrTruncated) {
		t.Fatalf("expected compacted prefix, got %v", err)
	}

	p, addr := startPrimary(t, pst, 1)
	defer p.Close()
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.RunUntil(ctx, addr, 20*time.Millisecond)

	waitFor(t, "catch-up", func() bool { return f.Cursor() >= pst.LastSeq() })
	for i := 0; i < 40; i++ {
		id := core.ClientID(fmt.Sprintf("snap-%02d", i))
		if _, ok := fst.RA().PublicKey(id); !ok {
			t.Fatalf("follower missing %s after snapshot catch-up", id)
		}
	}
	if _, ok := fst.RA().PublicKey("ghost"); ok {
		t.Fatal("reconciliation kept an entry the transfer never mentioned")
	}

	// Live tailing continues after the transfer.
	if err := pst.RA().Update("after", []byte("after-key")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live record after catch-up", func() bool {
		_, ok := fst.RA().PublicKey("after")
		return ok
	})
}

// TestFencing: a higher-epoch subscriber fences the primary (OnFenced
// fires, later subscribers are refused); a lower-epoch follower adopts
// the primary's epoch.
func TestFencing(t *testing.T) {
	pst := openState(t, t.TempDir())
	defer pst.Close()

	var fencedAt atomic.Uint64
	p := &Primary{
		State:     pst,
		Epoch:     5,
		Heartbeat: 20 * time.Millisecond,
		OnFenced:  func(e uint64) { fencedAt.Store(e) },
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer p.Close()
	addr := ln.Addr().String()

	// A lower-epoch follower adopts epoch 5.
	f3dir := t.TempDir()
	f3st := openState(t, f3dir)
	defer f3st.Close()
	f3 := newFollower(t, f3st, f3dir, "old")
	if err := SaveMeta(f3.cfg.MetaPath, Meta{Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	f3, _ = NewFollower(f3.cfg) // reload with epoch 3
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	go f3.RunUntil(ctx, addr, 20*time.Millisecond)
	waitFor(t, "epoch adoption", func() bool { return f3.Epoch() == 5 })
	cancel()

	// A higher-epoch follower fences the primary.
	f7dir := t.TempDir()
	f7st := openState(t, f7dir)
	defer f7st.Close()
	f7 := newFollower(t, f7st, f7dir, "new")
	if err := SaveMeta(f7.cfg.MetaPath, Meta{Epoch: 7}); err != nil {
		t.Fatal(err)
	}
	f7, _ = NewFollower(f7.cfg)
	err = f7.Run(context.Background(), addr)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("higher-epoch follower got %v, want ErrFenced", err)
	}
	if fenced, by := p.Fenced(); !fenced || by != 7 {
		t.Fatalf("primary fenced=%v by=%d, want true/7", fenced, by)
	}
	if fencedAt.Load() != 7 {
		t.Fatalf("OnFenced saw %d, want 7", fencedAt.Load())
	}

	// Once fenced, even same-epoch subscribers are refused.
	f5dir := t.TempDir()
	f5st := openState(t, f5dir)
	defer f5st.Close()
	f5 := newFollower(t, f5st, f5dir, "same")
	if err := SaveMeta(f5.cfg.MetaPath, Meta{Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	f5, _ = NewFollower(f5.cfg)
	if err := f5.Run(context.Background(), addr); err == nil {
		t.Fatal("fenced primary accepted a subscriber")
	}
}

// TestFollowerRejoinsAfterPrimaryRestart: a primary restart (same
// address) does not strand the follower; it redials and resumes.
func TestFollowerRejoinsAfterPrimaryRestart(t *testing.T) {
	pst := openState(t, t.TempDir())
	defer pst.Close()
	fdir := t.TempDir()
	fst := openState(t, fdir)
	defer fst.Close()

	p1, addr := startPrimary(t, pst, 1)
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.RunUntil(ctx, addr, 10*time.Millisecond)

	if err := pst.RA().Update("before", []byte("k")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first sync", func() bool { return f.Cursor() >= pst.LastSeq() })

	p1.Close()
	// Restart on the same address with the same state.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p2 := &Primary{State: pst, Epoch: 1, Heartbeat: 20 * time.Millisecond}
	go p2.Serve(ln)
	defer p2.Close()

	if err := pst.RA().Update("after", []byte("k2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resync after restart", func() bool {
		_, ok := fst.RA().PublicKey("after")
		return ok
	})
}

// TestFailoverProperty is the satellite's property test: kill the
// primary mid-load, promote the follower, and assert (a) every write
// the follower acknowledged survives the promotion and a restart, and
// (b) challenge-nonce single-use holds across the failover — the new
// authority never reissues a nonce the dead primary handed out.
func TestFailoverProperty(t *testing.T) {
	pst := openState(t, t.TempDir())
	fdir := t.TempDir()
	fst := openState(t, fdir)

	p, addr := startPrimary(t, pst, 1)
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- f.RunUntil(ctx, addr, 10*time.Millisecond) }()

	// Load: interleaved re-keys and session opens (each open consumes a
	// nonce, the single-use resource failover must respect).
	const load = 120
	for i := 0; i < load; i++ {
		id := core.ClientID(fmt.Sprintf("user-%03d", i))
		if err := pst.RA().Update(id, []byte(fmt.Sprintf("key-%03d", i))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			openSession(t, pst, id)
		}
	}

	// Kill the primary mid-load: no drain, no handshake — the follower
	// keeps whatever it has applied.
	waitFor(t, "some replication progress", func() bool { return f.Cursor() > 0 })
	primaryNonce := pst.Sessions().Nonce()
	primaryLast := pst.LastSeq()
	p.Close()
	if err := pst.Close(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "follower run loop to notice", func() bool { return f.Cursor() > 0 }) // cursor settled
	ackedCursor := f.Cursor()

	epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	// The follower adopted the primary's epoch (1) on subscribe, so
	// promotion must out-rank it.
	if epoch != 2 {
		t.Fatalf("promotion epoch = %d, want 2", epoch)
	}
	select {
	case err := <-runDone:
		if !errors.Is(err, ErrPromoted) && err != nil && ctx.Err() == nil {
			t.Fatalf("run loop exit = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run loop did not stop on promotion")
	}

	// (a) Everything the follower applied (cursor) must be present: the
	// cursor only advances after Ingest journals the record locally.
	// Re-open the follower state to prove it survives a restart too.
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	fst2 := openState(t, fdir)
	defer fst2.Close()
	missing := 0
	for i := 0; i < load; i++ {
		id := core.ClientID(fmt.Sprintf("user-%03d", i))
		if _, ok := fst2.RA().PublicKey(id); !ok {
			missing++
		}
	}
	// The cursor tells how many primary records were applied; with
	// load*4/3 total records, a fully-acked follower misses nothing.
	if ackedCursor >= primaryLast && missing > 0 {
		t.Fatalf("follower acked cursor %d >= primary last %d but misses %d clients",
			ackedCursor, primaryLast, missing)
	}

	// (b) Nonce single-use: the promoted authority's next nonce must
	// clear every nonce the dead primary ever issued (even ones it
	// never replicated) — that is what PromoteNonceSlack buys.
	nextNonce, err := fst2.Sessions().NextNonce()
	if err != nil {
		t.Fatal(err)
	}
	if nextNonce <= primaryNonce {
		t.Fatalf("promoted nonce %d does not clear primary nonce %d", nextNonce, primaryNonce)
	}

	// The promoted follower's meta carries the new epoch, so a deposed
	// primary coming back cannot out-rank it.
	meta, err := LoadMeta(filepath.Join(fdir, "replica-primary.meta"))
	if err != nil || meta.Epoch != epoch {
		t.Fatalf("persisted meta = %+v, %v; want epoch %d", meta, err, epoch)
	}
}

// TestPromoteIsIdempotent: double promotion neither double-bumps the
// epoch nor errors.
func TestPromoteIsIdempotent(t *testing.T) {
	fdir := t.TempDir()
	fst := openState(t, fdir)
	defer fst.Close()
	f := newFollower(t, fst, fdir, "f1")
	e1, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := f.Promote()
	if err != nil || e1 != e2 {
		t.Fatalf("second Promote = (%d, %v), want (%d, nil)", e2, err, e1)
	}
	if !f.Promoted() {
		t.Fatal("Promoted() false after Promote")
	}
}

// TestMetaRoundTrip pins the meta file format and the missing-file
// default.
func TestMetaRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.meta")
	m, err := LoadMeta(path)
	if err != nil || m != (Meta{}) {
		t.Fatalf("missing meta = %+v, %v", m, err)
	}
	want := Meta{Epoch: 3, Cursor: 99}
	if err := SaveMeta(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMeta(path)
	if err != nil || got != want {
		t.Fatalf("meta round trip = %+v, %v", got, err)
	}
}

// TestPrimaryCloseBeforeServe: Close on a primary whose Serve goroutine
// has not run yet must still stop it (see netproto's TestCloseBeforeServe).
func TestPrimaryCloseBeforeServe(t *testing.T) {
	st := openState(t, t.TempDir())
	defer st.Close()
	p := &Primary{State: st}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(ln) }()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve on a closed primary: %v", err)
		}
	case <-time.After(5 * time.Second):
		ln.Close()
		t.Fatal("Serve on a closed primary is still accepting")
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener left open: Accept err = %v", err)
	}
}

// TestPrimaryCloseEndsLiveStreams: Close on a primary with a follower
// streaming from it closes the stream's connection through the Acceptor
// and returns once the stream has ended, so nothing is left in the
// liveness table; the follower sees its stream end and redials.
func TestPrimaryCloseEndsLiveStreams(t *testing.T) {
	pst := openState(t, t.TempDir())
	defer pst.Close()
	p, addr := startPrimary(t, pst, 0)
	fdir := t.TempDir()
	fst := openState(t, fdir)
	defer fst.Close()
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.RunUntil(ctx, addr, 10*time.Millisecond) }()
	waitFor(t, "the follower to subscribe", func() bool { return len(p.Followers()) == 1 })

	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := len(p.Followers()); n != 0 {
		t.Fatalf("Close returned with %d stream(s) still running", n)
	}
	cancel()
	<-done
}

// TestMetaWritersNeverRegress drives the meta file's two writers — the
// run loop's periodic save and Promote's — through persist in both
// orders, holding the first at its rename while the second arrives. The
// second must wait its turn (sharing one temp file, it used to write and
// rename underneath the first, which then failed or published a torn
// file), the file on disk must never go backwards in epoch or cursor,
// and a pair that was stale by the time it was written — the run loop's
// pre-promotion epoch landing after Promote's — must not undo the newer
// one.
func TestMetaWritersNeverRegress(t *testing.T) {
	runLoop, promote := Meta{Epoch: 4, Cursor: 70}, Meta{Epoch: 5, Cursor: 50}
	for _, order := range [][2]Meta{{runLoop, promote}, {promote, runLoop}} {
		dir := t.TempDir()
		st := openState(t, dir)
		f := newFollower(t, st, dir, "f")

		held, release := make(chan struct{}), make(chan struct{})
		var onDisk Meta
		renames := 0
		f.rename = func(oldpath, newpath string) error {
			if renames++; renames == 1 {
				close(held)
				<-release
			}
			if err := os.Rename(oldpath, newpath); err != nil {
				return err
			}
			got, err := LoadMeta(newpath)
			if err != nil {
				t.Errorf("meta unreadable after rename %d: %v", renames, err)
			}
			if got.Epoch < onDisk.Epoch || got.Cursor < onDisk.Cursor {
				t.Errorf("rename %d took the file from %+v back to %+v", renames, onDisk, got)
			}
			onDisk = got
			return nil
		}

		first, second := make(chan error, 1), make(chan error, 1)
		go func() { first <- f.persist(order[0].Epoch, order[0].Cursor) }()
		<-held
		go func() { second <- f.persist(order[1].Epoch, order[1].Cursor) }()
		select {
		case err := <-second:
			t.Fatalf("second writer finished (%v) while the first was mid-save", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		if err := <-first; err != nil {
			t.Errorf("first writer: %v", err)
		}
		if err := <-second; err != nil {
			t.Errorf("second writer: %v", err)
		}
		got, err := LoadMeta(f.cfg.MetaPath)
		if want := (Meta{Epoch: 5, Cursor: 70}); err != nil || got != want {
			t.Errorf("order %+v: meta on disk %+v (%v), want %+v", order, got, err, want)
		}
		st.Close()
	}
}

// TestSaveMetaConcurrentSavers: savers that do not coordinate still each
// publish a whole file, and leave no temporary files behind.
func TestSaveMetaConcurrentSavers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.meta")
	const savers = 8
	errs := make(chan error, savers)
	for i := 0; i < savers; i++ {
		go func() {
			for round := 0; round < 20; round++ {
				if err := SaveMeta(path, Meta{Epoch: uint64(i), Cursor: uint64(i) * 100}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < savers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	got, err := LoadMeta(path)
	if err != nil || got.Cursor != got.Epoch*100 {
		t.Errorf("meta after concurrent saves = %+v, %v", got, err)
	}
	left, err := os.ReadDir(dir)
	if err != nil || len(left) != 1 {
		t.Errorf("directory holds %d entries (%v), want the meta file alone", len(left), err)
	}
}

// TestStalledSubscriberIsReaped: a subscriber that stops reading (and
// acking) while the primary has megabytes to send must still leave the
// liveness table once it has been silent past ReapAfter, even though the
// primary's stream is by then blocked writing to it.
func TestStalledSubscriberIsReaped(t *testing.T) {
	st, err := durable.Open(durable.Options{Dir: t.TempDir(), MasterKey: [32]byte{9}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// ~12 MB of journaled records: far more than two socket buffers hold.
	key := bytes.Repeat([]byte{0x5A}, 64<<10)
	for i := 0; i < 190; i++ {
		if err := st.RA().Update(core.ClientID(fmt.Sprintf("bulk-%03d", i)), key); err != nil {
			t.Fatal(err)
		}
	}

	const reapAfter = 300 * time.Millisecond
	p := &Primary{State: st, Epoch: 1, Heartbeat: 50 * time.Millisecond, ReapAfter: reapAfter}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln)
	defer p.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	sub, err := (&subscribeMsg{FollowerID: "stalled", Epoch: 1}).append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(sub); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if kind, _, err := wire.Read(bufio.NewReaderSize(conn, 16), maxReplicaFrame); err != nil || kind != kindAccept {
		t.Fatalf("accept: kind %d, err %v", kind, err)
	}
	subscribed := time.Now()
	if len(p.Followers()) != 1 {
		t.Fatal("subscriber not registered")
	}
	// From here on the subscriber neither reads nor acks.
	for time.Since(subscribed) < 2*reapAfter {
		if len(p.Followers()) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("stalled subscriber still registered %s after subscribing (ReapAfter %s)", time.Since(subscribed).Round(time.Millisecond), reapAfter)
}

// TestReplicaStreamAllocBudget bounds what streaming one record costs
// the primary and the follower together: 1,000 RA-key records, journaled
// one by one while a follower tails them over loopback, against the
// same journaling with nobody listening. It is the in-tree guard for the
// benchmark's proc.allocs_per_auth on the durable workloads, which carry
// three such records per authentication; it read about 200 per record
// when every frame was gob-encoded and both ends decoded every record.
func TestReplicaStreamAllocBudget(t *testing.T) {
	if cpu.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	open := func(dir string) *durable.State {
		st, err := durable.Open(durable.Options{Dir: dir, MasterKey: [32]byte{9}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	pst := open(t.TempDir())
	defer pst.Close()
	fdir := t.TempDir()
	fst := open(fdir)
	defer fst.Close()

	const n = 1000
	ids := make([]core.ClientID, 2*n)
	for i := range ids {
		ids[i] = core.ClientID(fmt.Sprintf("client-%05d", i))
	}
	key := bytes.Repeat([]byte{7}, 32)
	journal := func(ids []core.ClientID) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, id := range ids {
			if err := pst.RA().Update(id, key); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	alone := journal(ids[:n])

	p, addr := startPrimary(t, pst, 1)
	defer p.Close()
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.RunUntil(ctx, addr, 10*time.Millisecond)
	waitFor(t, "follower caught up", func() bool { return f.Cursor() >= pst.LastSeq() })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	journal(ids[n:])
	waitFor(t, "follower streamed", func() bool { return f.Cursor() >= pst.LastSeq() })
	runtime.ReadMemStats(&after)
	perRecord := float64(after.Mallocs-before.Mallocs-alone) / n
	const budget = 15
	if perRecord > budget {
		t.Errorf("streaming one record allocates %.1f objects, budget %d", perRecord, budget)
	} else {
		t.Logf("streaming one record allocates %.1f objects", perRecord)
	}
}

// stateOf reads a state as the records that rebuild it, keyed by op and
// client, each as its encoded payload.
func stateOf(t *testing.T, st *durable.State) map[string]string {
	t.Helper()
	out := map[string]string{}
	_, _, records := st.Records()
	for rec := range records {
		payload, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[rec.Op.String()+" "+string(rec.ID)] = string(payload)
	}
	return out
}

// TestCatchupMatchesSnapshotFile: one source of truth. A follower caught
// up by a snapshot transfer holds the images, RA keys and certificates
// that a State reopened from the primary's snapshot file holds, and a
// nonce high-water mark no lower than the primary's.
func TestCatchupMatchesSnapshotFile(t *testing.T) {
	pdir := t.TempDir()
	pst := openState(t, pdir)
	defer pst.Close()
	dev, err := puf.NewDevice(5, 256, puf.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		id := core.ClientID(fmt.Sprintf("client-%02d", i))
		if err := pst.Images().Put(id, im); err != nil {
			t.Fatal(err)
		}
		if err := pst.RA().Update(id, []byte("key-"+id)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			cert := &core.Certificate{ClientID: id, KeyAlgorithm: "AES-128", PublicKey: []byte("key-" + id),
				IssuedAt: time.Unix(1000, 0), ExpiresAt: time.Unix(2000, 0), Signature: []byte("sig")}
			if err := pst.RA().UpdateCertificate(id, cert); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			openSession(t, pst, id)
		}
	}
	if err := pst.DeleteClient("client-05"); err != nil {
		t.Fatal(err)
	}
	if err := pst.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := pst.TailFrom(0); !errors.Is(err, durable.ErrTruncated) {
		t.Fatalf("expected compacted prefix, got %v", err)
	}

	// The primary's snapshot file, alone, reopened.
	snaps, err := filepath.Glob(filepath.Join(pdir, "snap-*.db"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, %v", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	rdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(rdir, filepath.Base(snaps[0])), data, 0o600); err != nil {
		t.Fatal(err)
	}
	rst := openState(t, rdir)
	defer rst.Close()

	p, addr := startPrimary(t, pst, 1)
	defer p.Close()
	// The follower subscribes to every record: the whole state transfers.
	t.Run("all shards", func(t *testing.T) {
		fdir := t.TempDir()
		fst := openState(t, fdir)
		defer fst.Close()
		// An entry of the follower's own that the transfer never mentions:
		// reconciliation removes it.
		if err := fst.RA().Update("ghost", []byte("stale")); err != nil {
			t.Fatal(err)
		}
		f := newFollower(t, fst, fdir, "f1")
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- f.RunUntil(ctx, addr, 20*time.Millisecond) }()
		// The follower must stop writing fdir before fst closes and the
		// directory is removed.
		defer func() { cancel(); <-done }()
		waitFor(t, "catch-up", func() bool { return f.Cursor() >= pst.LastSeq() })

		got, want := stateOf(t, fst), stateOf(t, rst)
		if len(want) == 0 || !maps.Equal(got, want) {
			t.Fatalf("follower holds %d records, the snapshot file %d:\n follower %v\n snapshot %v",
				len(got), len(want), slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
		}
		if fn, pn := fst.Sessions().Nonce(), pst.Sessions().Nonce(); fn < pn {
			t.Fatalf("follower nonce %d below the primary's %d", fn, pn)
		}
	})
}

// TestFollowerAheadOfPrimaryResyncs: a primary that crashed and lost a
// tail of its log its follower had already ingested writes its next
// records at sequence numbers the follower's cursor covers. It must not
// stream past them: it refuses the cursor and sends the full state, whose
// reconciliation drops what the primary no longer holds, and the
// follower's cursor comes back to the primary's sequence space.
func TestFollowerAheadOfPrimaryResyncs(t *testing.T) {
	open := func(dir string) *durable.State {
		st, err := durable.Open(durable.Options{Dir: dir, MasterKey: [32]byte{9}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	pdir := t.TempDir()
	pst := open(pdir)
	defer pst.Close()
	ids := []core.ClientID{"c0", "c1", "c2", "c3"}
	update := func(st *durable.State, id core.ClientID, key string) {
		t.Helper()
		if err := st.RA().Update(id, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		update(pst, id, "v1-"+string(id))
	}
	survived := pst.LastSeq()
	for _, id := range ids {
		update(pst, id, "lost-"+string(id))
	}
	update(pst, "ghost", "lost")

	fdir := t.TempDir()
	fst := open(fdir)
	defer fst.Close()
	p, addr := startPrimary(t, pst, 1)
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.RunUntil(ctx, addr, 10*time.Millisecond) }()
	waitFor(t, "follower holds the whole log", func() bool { return f.Cursor() >= pst.LastSeq() })
	cancel()
	<-done
	p.Close()

	// The crash: the primary restarts from its log cut after record
	// survived, and writes new records at the numbers it lost.
	segs, err := filepath.Glob(filepath.Join(pdir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	end := 0
	for seq := uint64(1); seq <= survived; seq++ {
		end += 16 + int(binary.BigEndian.Uint32(data[end+8:]))
	}
	rdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(rdir, filepath.Base(segs[0])), data[:end], 0o600); err != nil {
		t.Fatal(err)
	}
	rst := open(rdir)
	defer rst.Close()
	for _, id := range ids[:2] {
		update(rst, id, "v2-"+string(id))
	}
	if rst.LastSeq() >= f.Cursor() {
		t.Fatalf("restarted primary at %d, follower cursor %d: not ahead", rst.LastSeq(), f.Cursor())
	}

	p2, addr2 := startPrimary(t, rst, 1)
	defer p2.Close()
	f2 := newFollower(t, fst, fdir, "f1")
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go f2.RunUntil(ctx2, addr2, 10*time.Millisecond)
	waitFor(t, "the follower's RA keys converge on the restarted primary's", func() bool {
		for _, id := range append(ids, "ghost") {
			pk, pok := rst.RA().PublicKey(id)
			fk, fok := fst.RA().PublicKey(id)
			if pok != fok || !bytes.Equal(pk, fk) {
				return false
			}
		}
		return f2.Cursor() == rst.LastSeq()
	})
	update(rst, "c3", "v3")
	waitFor(t, "live records after the resync", func() bool {
		fk, _ := fst.RA().PublicKey("c3")
		return string(fk) == "v3" && f2.Cursor() == rst.LastSeq()
	})
}

// countingListener hands out connections that report every Write.
type countingListener struct {
	net.Listener
	writes chan []byte
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return countingConn{c, l.writes}, err
}

type countingConn struct {
	net.Conn
	writes chan []byte
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes <- bytes.Clone(p)
	return c.Conn.Write(p)
}

// TestStreamShipsPerBarrier: under SyncAlways the primary ships what one
// barrier made durable, not what was appended: an authentication's RA
// key and certificate journaled without a barrier reach no follower, and
// the barrier that covers them sends both in one write.
func TestStreamShipsPerBarrier(t *testing.T) {
	pst, err := durable.Open(durable.Options{Dir: t.TempDir(), MasterKey: [32]byte{9}, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	fdir := t.TempDir()
	fst := openState(t, fdir)
	defer fst.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes := make(chan []byte, 64)
	p := &Primary{State: pst, Epoch: 1, Heartbeat: time.Hour}
	go p.Serve(countingListener{ln, writes})
	defer p.Close()
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.RunUntil(ctx, ln.Addr().String(), 10*time.Millisecond)
	waitFor(t, "subscribed", func() bool { return len(p.Followers()) == 1 })
	if kind, _, err := wire.Read(bufio.NewReader(bytes.NewReader(<-writes)), maxReplicaFrame); err != nil || kind != kindAccept {
		t.Fatalf("first write: kind %d, %v", kind, err)
	}

	cert := &core.Certificate{ClientID: "c", KeyAlgorithm: "AES-128", PublicKey: []byte("key"),
		IssuedAt: time.Unix(1000, 0), ExpiresAt: time.Unix(2000, 0), Signature: []byte("sig")}
	for _, journal := range []func() error{
		func() error { return pst.RAKeyUpdate("c", []byte("key")) },
		func() error { return pst.RACertUpdate("c", cert) },
	} {
		if err := journal(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case w := <-writes:
		t.Fatalf("%d bytes shipped before the barrier", len(w))
	case <-time.After(50 * time.Millisecond):
	}
	if err := pst.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower ingested the request", func() bool { return f.Cursor() == pst.LastSeq() })
	w := <-writes
	var batch recordBatch
	if n, err := batch.split(w); err != nil || n != len(w) || len(batch.seqs) != 2 {
		t.Fatalf("the barrier's write: %d records in %d of %d bytes (%v), want 2 in all", len(batch.seqs), n, len(w), err)
	}
	select {
	case w := <-writes:
		t.Errorf("a second write of %d bytes for one barrier", len(w))
	default:
	}
}

// TestLoneRecordIngestedPromptly: a record followed by silence is
// ingested as soon as it arrives. The follower gathers only the record
// messages already buffered, so it never waits for a second message — on
// an idle stream that would be the next heartbeat.
func TestLoneRecordIngestedPromptly(t *testing.T) {
	pst := openState(t, t.TempDir())
	defer pst.Close()
	fdir := t.TempDir()
	fst := openState(t, fdir)
	defer fst.Close()
	const heartbeat = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &Primary{State: pst, Epoch: 1, Heartbeat: heartbeat}
	go p.Serve(ln)
	defer p.Close()
	f := newFollower(t, fst, fdir, "f1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.RunUntil(ctx, ln.Addr().String(), 10*time.Millisecond)
	waitFor(t, "subscribed", func() bool { return len(p.Followers()) == 1 })

	start := time.Now()
	if err := pst.RA().Update("lone", []byte("k")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the lone record", func() bool { _, ok := fst.RA().PublicKey("lone"); return ok })
	if took := time.Since(start); took > heartbeat/4 {
		t.Errorf("a lone record took %v to be ingested (heartbeat %v)", took, heartbeat)
	}
}
