package durable

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

// syncSpy stands in for a wal's syncFile: it counts barriers, can hold
// one open until released, and can fail them.
type syncSpy struct {
	calls atomic.Int64
	fail  atomic.Bool

	// block makes every call announce itself on entered and then wait for
	// a value on release.
	block   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

var errInjectedSync = errors.New("injected fsync failure")

func spyOn(w *wal) *syncSpy {
	spy := &syncSpy{entered: make(chan struct{}, 1), release: make(chan struct{})}
	real := w.syncFile
	w.syncFile = func(f *os.File) error {
		spy.calls.Add(1)
		if spy.block.Load() {
			spy.entered <- struct{}{}
			<-spy.release
		}
		if spy.fail.Load() {
			return errInjectedSync
		}
		return real(f)
	}
	return spy
}

func (w *wal) syncedSeq() uint64 {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.synced
}

// noBackend fails a test whose search leaves the inline path.
type noBackend struct{ t *testing.T }

func (noBackend) Name() string { return "none" }
func (b noBackend) Search(context.Context, core.Task) (core.Result, error) {
	b.t.Error("search escalated past the inline shells")
	return core.Result{}, errors.New("no backend")
}

// commitRig is a CA on a SyncAlways durable state with a spied barrier.
// Its devices read without error, so a client's own response sits at
// distance 0 and NoiseBits places it exactly.
type commitRig struct {
	st  *State
	ca  *core.CA
	spy *syncSpy
}

func newCommitRig(t *testing.T, dir string, sync SyncPolicy) *commitRig {
	t.Helper()
	st := openState(t, dir, Options{Sync: sync, SegmentBytes: 1 << 20})
	ca, err := core.NewCA(st.Images(), noBackend{t}, &aeskg.Generator{}, st.RA(), core.CAConfig{
		MaxDistance: 2,
		InlineDepth: 2,
		Sessions:    st.Sessions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &commitRig{st: st, ca: ca, spy: spyOn(st.wal)}
}

func (r *commitRig) enroll(t *testing.T, id core.ClientID, seed uint64) *core.Client {
	t.Helper()
	dev, err := puf.NewDevice(seed, 1024, puf.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ca.Enroll(id, im); err != nil {
		t.Fatal(err)
	}
	return &core.Client{ID: id, Device: dev}
}

// handshake opens a session and returns the client's request for it.
func (r *commitRig) handshake(t *testing.T, cl *core.Client) core.AuthRequest {
	t.Helper()
	ch, err := r.ca.BeginHandshake(cl.ID)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := cl.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	return core.AuthRequest{Client: cl.ID, Nonce: ch.Nonce, M1: m1}
}

// durableCeiling returns the highest nonce lease among the records st's
// log has made durable, reading them back through a tail (which under
// SyncAlways sees nothing else).
func durableCeiling(t *testing.T, st *State) uint64 {
	t.Helper()
	tail, err := st.wal.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var ceiling uint64
	for tail.Ready() {
		_, p, err := tail.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Op == OpNonceLease {
			ceiling = max(ceiling, rec.Lease)
		}
	}
	return ceiling
}

// TestAuthenticateOneBarrierPerOutcome: a challenge leaves only with its
// nonce below a durable lease ceiling, and whatever Authenticate returns
// for a presented nonce — a result or an error — everything the request
// journaled (its SessionClose, and its RAKey on success) is durable by
// then, through exactly one barrier taken after the Take.
func TestAuthenticateOneBarrierPerOutcome(t *testing.T) {
	r := newCommitRig(t, t.TempDir(), SyncAlways)
	defer r.st.Close()
	cl := r.enroll(t, "alice", 11)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name    string
		ctx     context.Context
		mutate  func(*core.AuthRequest)
		records uint64 // journaled by Authenticate
		check   func(core.AuthResult, error)
	}{
		{"success", context.Background(), func(*core.AuthRequest) {}, 2, func(res core.AuthResult, err error) {
			if err != nil || !res.Authenticated {
				t.Errorf("success: %+v, %v", res, err)
			}
		}},
		{"wrong digest", context.Background(), func(req *core.AuthRequest) {
			req.M1 = core.HashSeed(core.SHA3, u256.FromUint64(0xBAD))
		}, 1, func(res core.AuthResult, err error) {
			if err != nil || res.Authenticated {
				t.Errorf("wrong digest: %+v, %v", res, err)
			}
		}},
		{"alg mismatch", context.Background(), func(req *core.AuthRequest) {
			req.M1 = core.HashSeed(core.SHA1, u256.FromUint64(1))
		}, 1, func(res core.AuthResult, err error) {
			if !errors.Is(err, core.ErrAlgMismatch) || res.Authenticated {
				t.Errorf("alg mismatch: %+v, %v", res, err)
			}
		}},
		{"cancelled", cancelled, func(req *core.AuthRequest) {
			req.M1 = core.HashSeed(core.SHA3, u256.FromUint64(0xBAD))
		}, 1, func(res core.AuthResult, err error) {
			if !errors.Is(err, context.Canceled) || res.Authenticated {
				t.Errorf("cancelled: %+v, %v", res, err)
			}
		}},
	}
	for _, tc := range cases {
		req := r.handshake(t, cl)
		if ceiling := durableCeiling(t, r.st); req.Nonce > ceiling {
			t.Fatalf("%s: challenge released with nonce %d above the durable ceiling %d", tc.name, req.Nonce, ceiling)
		}
		tc.mutate(&req)
		seqBefore, callsBefore := r.st.LastSeq(), r.spy.calls.Load()

		res, err := r.ca.Authenticate(tc.ctx, req)
		tc.check(res, err)
		if got := r.st.LastSeq() - seqBefore; got != tc.records {
			t.Errorf("%s: journaled %d records, want %d", tc.name, got, tc.records)
		}
		if got := r.spy.calls.Load() - callsBefore; got != 1 {
			t.Errorf("%s: %d barriers after Take, want exactly 1", tc.name, got)
		}
		if got, want := r.st.wal.syncedSeq(), r.st.LastSeq(); got < want {
			t.Errorf("%s: outcome released at synced=%d, request's last record is %d", tc.name, got, want)
		}

		// The nonce is burnt; refusing it journals nothing and syncs nothing.
		callsBefore = r.spy.calls.Load()
		if _, err := r.ca.Authenticate(context.Background(), req); !errors.Is(err, core.ErrNoSession) {
			t.Errorf("%s: replayed nonce: err = %v, want ErrNoSession", tc.name, err)
		}
		if got := r.spy.calls.Load() - callsBefore; got != 0 {
			t.Errorf("%s: refusing a replay took %d barriers", tc.name, got)
		}
	}
}

// TestMutatorsDurableOnReturn: every exported mutator other than Take
// returns only once what it journaled is durable — no acked enrolment,
// RA write or session drop can be lost under SyncAlways — and a handshake
// returns a challenge only once its nonce is below a durable ceiling.
func TestMutatorsDurableOnReturn(t *testing.T) {
	r := newCommitRig(t, t.TempDir(), SyncAlways)
	defer r.st.Close()
	durable := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, want := r.st.wal.syncedSeq(), r.st.LastSeq(); got < want {
			t.Errorf("%s returned at synced=%d, its record is %d", what, got, want)
		}
	}
	leased := func(what string, ch core.Challenge, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if ceiling := durableCeiling(t, r.st); ch.Nonce > ceiling {
			t.Errorf("%s returned nonce %d above the durable ceiling %d", what, ch.Nonce, ceiling)
		}
	}
	cl := r.enroll(t, "bob", 21)
	durable("Enroll", nil)
	durable("RA.Update", r.st.RA().Update("bob", []byte("pk")))
	durable("RA.UpdateCertificate", r.st.RA().UpdateCertificate("bob", &core.Certificate{ClientID: "bob", PublicKey: []byte("pk")}))
	ch, err := r.ca.BeginHandshake(cl.ID)
	leased("BeginHandshake", ch, err)
	durable("Sessions.Drop", r.st.Sessions().Drop("bob"))
	ch, err = r.ca.BeginHandshake(cl.ID)
	leased("BeginHandshake", ch, err)
	durable("Deprovision", r.ca.Deprovision("bob"))
	if r.st.Images().Has("bob") || r.st.Sessions().Len() != 0 {
		t.Error("Deprovision left state behind")
	}
}

// TestFailedBarrierFailsTheOutcome: when the fsync fails nothing is
// acknowledged — Authenticate returns an error and never Authenticated —
// and the log stays poisoned, because a later fsync that succeeds says
// nothing about the records the failed one covered. No challenge leaves
// a poisoned log, whether its nonce lies under the last lease or needs a
// new one.
func TestFailedBarrierFailsTheOutcome(t *testing.T) {
	r := newCommitRig(t, t.TempDir(), SyncAlways)
	cl := r.enroll(t, "carol", 31)
	req := r.handshake(t, cl)
	dev, err := puf.NewDevice(32, 1024, puf.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 3)
	if err != nil {
		t.Fatal(err)
	}

	r.spy.fail.Store(true)
	res, err := r.ca.Authenticate(context.Background(), req)
	if !errors.Is(err, errInjectedSync) || res.Authenticated || res.PublicKey != nil {
		t.Fatalf("Authenticate over a failing barrier = %+v, %v", res, err)
	}
	r.spy.fail.Store(false)
	if _, err := r.ca.BeginHandshake(cl.ID); !errors.Is(err, errInjectedSync) {
		t.Errorf("BeginHandshake on a poisoned log: err = %v", err)
	}
	r.st.Sessions().BumpNonce(r.st.Sessions().NonceCeiling())
	if _, err := r.ca.BeginHandshake(cl.ID); !errors.Is(err, errInjectedSync) {
		t.Errorf("BeginHandshake needing a lease on a poisoned log: err = %v", err)
	}
	if err := r.ca.Enroll("dave", im); !errors.Is(err, errInjectedSync) {
		t.Errorf("Enroll on a poisoned log: err = %v", err)
	}
	if err := r.ca.Deprovision(cl.ID); !errors.Is(err, errInjectedSync) {
		t.Errorf("Deprovision on a poisoned log: err = %v", err)
	}
	if err := r.st.wal.Close(); !errors.Is(err, errInjectedSync) {
		t.Errorf("Close of a poisoned log: err = %v", err)
	}
}

// TestSyncDirReportsErrors: a directory that cannot be opened, let alone
// synced, is an error, not a silent success.
func TestSyncDirReportsErrors(t *testing.T) {
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir of a missing directory returned nil")
	}
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir of a directory: %v", err)
	}
}

// TestFailedRotationDirSyncPoisonsTheLog: a rotation whose directory sync
// fails leaves the new segment's entry possibly undurable, so the log is
// poisoned and the next Commit reports the failure instead of acking.
func TestFailedRotationDirSyncPoisonsTheLog(t *testing.T) {
	w, _, _ := collectWAL(t, t.TempDir(), walConfig{policy: SyncAlways}, 0)
	if _, err := w.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	w.syncDir = func(string) error { return errInjectedSync }
	if err := w.Rotate(); !errors.Is(err, errInjectedSync) {
		t.Fatalf("Rotate over a failing directory sync: err = %v", err)
	}
	seq, err := w.Append([]byte("after"))
	if err == nil {
		err = w.Commit(seq)
	}
	if !errors.Is(err, errInjectedSync) {
		t.Fatalf("Commit after a failed rotation: err = %v", err)
	}
	w.Close()
}

// TestGroupCommit: with one fsync held open, appends keep completing, and
// sixteen committers share two fsyncs — the one in flight and the one
// that covers everything written meanwhile.
func TestGroupCommit(t *testing.T) {
	w, _, _ := collectWAL(t, t.TempDir(), walConfig{policy: SyncAlways, segBytes: 1 << 20}, 0)
	defer w.Close()
	spy := spyOn(w)
	spy.block.Store(true)

	const committers = 16
	errs := make(chan error, committers)
	commit := func(seq uint64) { errs <- w.Commit(seq) }
	first, err := w.Append([]byte("record-0"))
	if err != nil {
		t.Fatal(err)
	}
	go commit(first)
	<-spy.entered // the leader is inside its fsync

	// Appenders are not behind the barrier: these run to completion on
	// this goroutine while the fsync is still held open.
	seqs := make([]uint64, 0, committers-1)
	for i := 1; i < committers; i++ {
		seq, err := w.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	for _, seq := range seqs {
		go commit(seq)
	}
	spy.release <- struct{}{} // first fsync: covers record 0 only
	<-spy.entered             // second leader, whichever committer it is
	spy.release <- struct{}{}
	for i := 0; i < committers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if got := spy.calls.Load(); got != 2 {
		t.Errorf("%d committers took %d fsyncs, want 2", committers, got)
	}
	if got, want := w.syncedSeq(), w.LastSeq(); got != want {
		t.Errorf("synced = %d, want %d", got, want)
	}
	// Nothing left to do: a barrier for durable records is free.
	if err := w.Commit(w.LastSeq()); err != nil || spy.calls.Load() != 2 {
		t.Errorf("Commit of durable records: err %v, %d fsyncs", err, spy.calls.Load())
	}
}

// TestCommitNoopUnlessSyncAlways: the other policies promise bounded
// loss, not durability on return, so their barrier costs nothing.
func TestCommitNoopUnlessSyncAlways(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNever} {
		w, _, _ := collectWAL(t, t.TempDir(), walConfig{policy: policy, interval: 1 << 40}, 0)
		spy := spyOn(w)
		seq, err := w.Append([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(seq); err != nil || spy.calls.Load() != 0 {
			t.Errorf("%v: Commit = %v after %d fsyncs, want a no-op", policy, err, spy.calls.Load())
		}
		if err := w.Sync(); err != nil || spy.calls.Load() != 1 {
			t.Errorf("%v: Sync = %v after %d fsyncs, want one", policy, err, spy.calls.Load())
		}
		w.Close()
	}
}

// TestConcurrentAuthenticationsShareBarriers drives the whole protocol
// from many goroutines on one SyncAlways state: every authentication
// succeeds, and none costs more than its two barriers (concurrent ones
// share, so the total is usually lower).
func TestConcurrentAuthenticationsShareBarriers(t *testing.T) {
	r := newCommitRig(t, t.TempDir(), SyncAlways)
	defer r.st.Close()
	const clients, rounds = 8, 12
	cls := make([]*core.Client, clients)
	for i := range cls {
		cls[i] = r.enroll(t, core.ClientID(fmt.Sprintf("c%d", i)), uint64(100+i))
	}
	before := r.spy.calls.Load()
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *core.Client) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ch, err := r.ca.BeginHandshake(cl.ID)
				if err != nil {
					t.Error(err)
					return
				}
				m1, err := cl.Respond(ch)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := r.ca.Authenticate(context.Background(), core.AuthRequest{Client: cl.ID, Nonce: ch.Nonce, M1: m1})
				if err != nil || !res.Authenticated {
					t.Errorf("%s round %d: %+v, %v", cl.ID, i, res, err)
					return
				}
				if pk, ok := r.st.RA().PublicKey(cl.ID); !ok || !bytes.Equal(pk, res.PublicKey) {
					t.Errorf("%s round %d: RA key differs from the result's", cl.ID, i)
				}
			}
		}(cl)
	}
	wg.Wait()
	if got, max := r.spy.calls.Load()-before, int64(2*clients*rounds); got > max {
		t.Errorf("%d authentications took %d barriers, want <= %d", clients*rounds, got, max)
	}
	if got, want := r.st.wal.syncedSeq(), r.st.LastSeq(); got != want {
		t.Errorf("synced = %d after the last reply, log ends at %d", got, want)
	}
}

// frameEnds walks a segment's records and returns the offset after each;
// the last one is the segment's logical end.
func frameEnds(t *testing.T, data []byte) []int64 {
	t.Helper()
	var ends []int64
	off := int64(0)
	for off+recordHeader <= int64(len(data)) {
		plen := int64(binary.BigEndian.Uint32(data[off+8 : off+12]))
		if plen == 0 {
			break // preallocated zeros
		}
		off += recordHeader + plen
		if off > int64(len(data)) {
			t.Fatalf("segment ends inside a record at %d", off)
		}
		ends = append(ends, off)
	}
	return ends
}

// TestCrashBetweenCloseAndRAKey cuts the log around one authentication's
// three records. Whatever prefix survives, recovery is that prefix and
// the nonce behaves as it says: still answerable while only the
// SessionOpen survived, refused from the SessionClose on — with the RA
// key present exactly when its record survived too.
func TestCrashBetweenCloseAndRAKey(t *testing.T) {
	master := t.TempDir()
	r := newCommitRig(t, master, SyncNever)
	cl := r.enroll(t, "erin", 41)
	req := r.handshake(t, cl)
	res, err := r.ca.Authenticate(context.Background(), req)
	if err != nil || !res.Authenticated {
		t.Fatalf("Authenticate: %+v, %v", res, err)
	}
	if err := r.st.wal.Close(); err != nil { // crash: no snapshot
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(master, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, full)
	if len(ends) != 5 { // ImagePut, NonceLease, SessionOpen, SessionClose, RAKey
		t.Fatalf("log holds %d records, want 5", len(ends))
	}
	afterOpen, afterClose, afterKey := ends[2], ends[3], ends[4]

	cuts := []struct {
		name       string
		at         int64
		answerable bool
		hasKey     bool
	}{
		{"after SessionOpen", afterOpen, true, false},
		{"inside SessionClose", afterOpen + recordHeader + 1, true, false},
		{"after SessionClose", afterClose, false, false},
		{"inside RAKey", afterClose + recordHeader + 1, false, false},
		{"after RAKey", afterKey, false, true},
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut.at], 0o600); err != nil {
			t.Fatal(err)
		}
		rec := newCommitRig(t, dir, SyncNever)
		pk, hasKey := rec.st.RA().PublicKey("erin")
		if hasKey != cut.hasKey || (hasKey && !bytes.Equal(pk, res.PublicKey)) {
			t.Errorf("%s: recovered RA key %x (present %v), want present %v", cut.name, pk, hasKey, cut.hasKey)
		}
		if _, open := maps.Collect(rec.st.Sessions().Challenges())["erin"]; open != cut.answerable {
			t.Errorf("%s: session open = %v, want %v", cut.name, open, cut.answerable)
		}
		again, err := rec.ca.Authenticate(context.Background(), req)
		switch {
		case cut.answerable && (err != nil || !again.Authenticated || !bytes.Equal(again.PublicKey, res.PublicKey)):
			t.Errorf("%s: nonce should still be answerable: %+v, %v", cut.name, again, err)
		case !cut.answerable && !errors.Is(err, core.ErrNoSession):
			t.Errorf("%s: nonce should be refused: %+v, %v", cut.name, again, err)
		}
		// Either way it is single-use from here on.
		if _, err := rec.ca.Authenticate(context.Background(), req); !errors.Is(err, core.ErrNoSession) {
			t.Errorf("%s: second presentation: err = %v, want ErrNoSession", cut.name, err)
		}
		if err := rec.st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRotationIsABarrier: the fsync that seals a full segment covers the
// records that filled it, so their Commit costs nothing more, and it
// waits its turn behind a barrier in flight like any other sync.
func TestRotationIsABarrier(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := collectWAL(t, dir, walConfig{policy: SyncAlways, segBytes: 64}, 0)
	defer w.Close()
	spy := spyOn(w)
	seq, err := w.Append(bytes.Repeat([]byte{7}, 64)) // fills the segment
	if err != nil {
		t.Fatal(err)
	}
	if starts, _ := listSegments(dir); len(starts) != 2 {
		t.Fatalf("segments = %v, expected the append to rotate", starts)
	}
	if w.syncedSeq() != seq {
		t.Fatalf("after rotation: synced = %d, want %d", w.syncedSeq(), seq)
	}
	if err := w.Commit(seq); err != nil || spy.calls.Load() != 0 {
		t.Fatalf("Commit of a record the seal covered: err %v, %d barriers", err, spy.calls.Load())
	}

	// A rotation arriving while a leader is inside its fsync waits for it
	// instead of truncating and closing the file under it.
	first, err := w.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	spy.block.Store(true)
	committed := make(chan error, 1)
	go func() { committed <- w.Commit(first) }()
	<-spy.entered
	rotated := make(chan error, 1)
	go func() {
		_, err := w.Append(bytes.Repeat([]byte{8}, 64))
		rotated <- err
	}()
	select {
	case err := <-rotated:
		t.Fatalf("rotation went ahead under a barrier in flight (err %v)", err)
	case spy.release <- struct{}{}:
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := <-rotated; err != nil {
		t.Fatal(err)
	}
	if got, want := w.syncedSeq(), w.LastSeq(); got != want {
		t.Errorf("synced = %d, want %d", got, want)
	}
}

// copyDir copies a data directory as it is on disk right now — what a
// kill -9 of the process that has it open would leave behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestPreallocatedTailRecovery: the zeros after the last record of a
// preallocated segment are the clean end of the log, after a clean stop
// and after a kill -9 alike; a damaged record among them is still a torn
// tail; and in a sealed segment they are corruption.
func TestPreallocatedTailRecovery(t *testing.T) {
	const segBytes = 1 << 16
	cfg := walConfig{policy: SyncAlways, segBytes: segBytes}
	live := t.TempDir()
	w, _, _ := collectWAL(t, live, cfg, 0)
	if !w.prealloc {
		t.Skip("no segment preallocation on this platform or filesystem")
	}
	const records = 20
	for i := 0; i < records; i++ {
		seq, err := w.Append([]byte(fmt.Sprintf("prealloc-record-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	seg := segName(1)
	if st, err := os.Stat(filepath.Join(live, seg)); err != nil || st.Size() != segBytes {
		t.Fatalf("active segment: size %d (err %v), want the preallocated %d", st.Size(), err, segBytes)
	}
	killed, torn, sealed := copyDir(t, live), copyDir(t, live), copyDir(t, live)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(name, dir string, wantTorn int64) *wal {
		t.Helper()
		w, rec, got := collectWAL(t, dir, cfg, 0)
		if len(got) != records || rec.Truncated != (wantTorn > 0) || rec.TornBytes != wantTorn {
			t.Fatalf("%s: recovered %d records, %+v; want %d records, %d torn bytes", name, len(got), rec, records, wantTorn)
		}
		if seq, err := w.Append([]byte("next")); err != nil || seq != records+1 {
			t.Fatalf("%s: append after recovery: seq %d, %v", name, seq, err)
		}
		return w
	}

	// Clean stop: Close sealed the segment to its logical size.
	data, err := os.ReadFile(filepath.Join(live, seg))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, data)
	if end := ends[len(ends)-1]; len(ends) != records || int64(len(data)) != end {
		t.Fatalf("closed segment is %d bytes holding %d records ending at %d", len(data), len(ends), end)
	}
	reopen("clean stop", live, 0).Close()

	// kill -9: the zero tail is still there and is not damage.
	reopen("kill -9", killed, 0).Close()

	// A record torn by the crash, in the middle of the zero area: a whole
	// header announcing a payload that never made it.
	f, err := os.OpenFile(filepath.Join(torn, seg), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	end := ends[len(ends)-1]
	var hdr [recordHeader]byte
	binary.BigEndian.PutUint64(hdr[0:8], records+1)
	binary.BigEndian.PutUint32(hdr[8:12], 40)
	binary.BigEndian.PutUint32(hdr[12:16], 0xDEADBEEF)
	if _, err := f.WriteAt(append(hdr[:], "half a payl"...), end); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w3 := reopen("torn record", torn, recordHeader+int64(len("half a payl")))
	// The repair went to disk: nothing is torn the second time.
	w3.Close()
	if _, rec, got := collectWAL(t, torn, cfg, 0); rec.Truncated || len(got) != records+1 {
		t.Fatalf("second recovery after repair: %d records, %+v", len(got), rec)
	}

	// The same zero tail in a segment that is not the last one means a
	// sealed segment lost its end: refuse.
	if err := os.WriteFile(filepath.Join(sealed, segName(records+1)), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(sealed, cfg, 0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero tail in a sealed segment: err = %v, want ErrCorrupt", err)
	}
}

// TestRotationSealsPreallocatedSegments: every segment but the active one
// ends with its last record, and a tail crossing a rotation never sees a
// zero header.
func TestRotationSealsPreallocatedSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig{policy: SyncAlways, segBytes: 512}
	w, _, _ := collectWAL(t, dir, cfg, 0)
	tail, err := w.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	const records = 60
	for i := 0; i < records; i++ {
		payload := []byte(fmt.Sprintf("rotating-record-%03d", i))
		seq, err := w.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(seq); err != nil {
			t.Fatal(err)
		}
		gotSeq, got, err := tail.Next(context.Background())
		if err != nil || gotSeq != seq || !bytes.Equal(got, payload) {
			t.Fatalf("tail at record %d: seq %d, %q, %v", seq, gotSeq, got, err)
		}
	}
	starts, err := listSegments(dir)
	if err != nil || len(starts) < 3 {
		t.Fatalf("segments = %v (err %v), expected rotation", starts, err)
	}
	for _, start := range starts[:len(starts)-1] {
		data, err := os.ReadFile(filepath.Join(dir, segName(start)))
		if err != nil {
			t.Fatal(err)
		}
		ends := frameEnds(t, data)
		if len(ends) == 0 || ends[len(ends)-1] != int64(len(data)) {
			t.Errorf("sealed segment %d is %d bytes but its records end at %v", start, len(data), ends)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, rec, got := collectWAL(t, dir, cfg, 0)
	defer w2.Close()
	if len(got) != records || rec.Truncated {
		t.Fatalf("recovery across rotated preallocated segments: %d records, %+v", len(got), rec)
	}
}

// TestSnapshotCutUnderConcurrentBarriers: writers journal and apply under
// their shard lock and take the barrier outside it while snapshots cut,
// rotate and compact beside them. After a crash the newest snapshot plus
// the log's suffix must hold every writer's last acknowledged value.
func TestSnapshotCutUnderConcurrentBarriers(t *testing.T) {
	dir := t.TempDir()
	st := openState(t, dir, Options{Sync: SyncAlways, SegmentBytes: 4 << 10})
	const writers, updates = 6, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := core.ClientID(fmt.Sprintf("writer-%d", w))
			for v := 1; v <= updates; v++ {
				if err := st.RA().Update(id, []byte(fmt.Sprintf("%s-v%03d", id, v))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	snapshots := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				snapshots <- n
				return
			default:
			}
			if err := st.Snapshot(); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-snapshots; n == 0 {
		t.Fatal("no snapshot ran beside the writers")
	}
	if err := st.wal.Close(); err != nil { // crash: no final snapshot
		t.Fatal(err)
	}

	st2 := openState(t, dir, Options{Sync: SyncAlways, SegmentBytes: 4 << 10})
	defer st2.Close()
	for w := 0; w < writers; w++ {
		id := core.ClientID(fmt.Sprintf("writer-%d", w))
		want := fmt.Sprintf("%s-v%03d", id, updates)
		if pk, ok := st2.RA().PublicKey(id); !ok || string(pk) != want {
			t.Errorf("%s recovered as %q, want %q", id, pk, want)
		}
	}
}

// TestSnapshotNeverCutsPastUnappliedIngest: a snapshot requested while
// an Ingest sits between its WAL append and its apply must not take a
// cut that covers the record before its effect is in the stores it
// copies — compaction would then drop the only copy. The seam starts
// the snapshot exactly there and holds the apply until the snapshot has
// either finished (nothing excluded it: it cut past the record) or is
// parked on the cut, waiting for this Ingest.
func TestSnapshotNeverCutsPastUnappliedIngest(t *testing.T) {
	dir := t.TempDir()
	st := openState(t, dir, Options{Sync: SyncNever})
	payload, err := (&Record{Op: OpRAKey, ID: "late", Blob: []byte("pk-late")}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	snapDone := make(chan error, 1)
	st.ingestAppended = func() {
		go func() { snapDone <- st.Snapshot() }()
		for len(snapDone) == 0 {
			// A failed TryRLock with no writer holding the lock means a
			// writer is waiting for it: the snapshot reached its cut.
			if !st.ingestMu.TryRLock() {
				return
			}
			st.ingestMu.RUnlock()
			runtime.Gosched()
		}
	}
	if _, err := st.Ingest(payload); err != nil {
		t.Fatal(err)
	}
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}
	if err := st.wal.Close(); err != nil { // crash: no final snapshot
		t.Fatal(err)
	}

	st2 := openState(t, dir, Options{Sync: SyncNever})
	defer st2.Close()
	if pk, ok := st2.RA().PublicKey("late"); !ok || string(pk) != "pk-late" {
		t.Fatalf("ingested record lost across snapshot + compaction: %q %v", pk, ok)
	}
}

// BenchmarkWALCommitParallel measures the barrier under 1, 4 and 16
// concurrent committers of session-sized records: ns/op is the time one
// committer waits for its append to be durable, fsyncs/op how many
// barriers that cost (1 alone, falling towards 2/g as g committers
// share).
func BenchmarkWALCommitParallel(b *testing.B) {
	payload := bytes.Repeat([]byte{0xA5}, 390-recordHeader)
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			w, _, err := openWAL(b.TempDir(), walConfig{policy: SyncAlways}, 0, func(uint64, []byte) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			var fsyncs atomic.Int64
			real := w.syncFile
			w.syncFile = func(f *os.File) error {
				fsyncs.Add(1)
				return real(f)
			}
			var (
				wg   sync.WaitGroup
				next atomic.Int64
			)
			b.ResetTimer()
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						seq, err := w.Append(payload)
						if err == nil {
							err = w.Commit(seq)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(fsyncs.Load())/float64(b.N), "fsyncs/op")
		})
	}
}

// TestHandshakeSeedStaysInMemory: the seed a handshake computes is kept
// beside the open session in memory only. No file of the data directory
// — the log the SessionOpen went to, which is also what a follower is
// streamed, or a snapshot holding the open session — contains its bytes,
// and a session recovered from either still authenticates, by unsealing
// the image again.
func TestHandshakeSeedStaysInMemory(t *testing.T) {
	recoveries := []struct {
		name string
		stop func(*State) error
	}{
		{"wal replay", func(st *State) error { return st.wal.Close() }}, // crash: no snapshot
		{"snapshot", func(st *State) error { return st.Close() }},
	}
	for _, rc := range recoveries {
		t.Run(rc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := newCommitRig(t, dir, SyncNever)
			cl := r.enroll(t, "alice", 11)
			ch, err := r.ca.BeginHandshake(cl.ID)
			if err != nil {
				t.Fatal(err)
			}
			im, err := r.st.Images().Get(cl.ID)
			if err != nil {
				t.Fatal(err)
			}
			seed, err := im.Seed(ch.AddressMap)
			if err != nil {
				t.Fatal(err)
			}
			if err := rc.stop(r.st); err != nil {
				t.Fatal(err)
			}

			files, err := os.ReadDir(dir)
			if err != nil || len(files) == 0 {
				t.Fatalf("data directory: %d files, %v", len(files), err)
			}
			needle := seed.Bytes()
			for _, f := range files {
				data, err := os.ReadFile(filepath.Join(dir, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(data, needle[:]) {
					t.Errorf("%s contains the session's base seed", f.Name())
				}
			}

			back := newCommitRig(t, dir, SyncNever)
			defer back.st.Close()
			m1, err := cl.Respond(ch)
			if err != nil {
				t.Fatal(err)
			}
			res, err := back.ca.Authenticate(context.Background(), core.AuthRequest{Client: cl.ID, Nonce: ch.Nonce, M1: m1})
			if err != nil || !res.Authenticated {
				t.Fatalf("recovered session: %+v, %v", res, err)
			}
		})
	}
}

// TestRecoversParentDataDir opens data directories written by the commit
// before the image store's binary layout (testdata/parent_wal: a crashed
// process, log only; testdata/parent_snapshot: a clean stop; both: key
// 0..31, client "fixture-client" enrolled from device seed 20232, an RA
// key, and a session opened at Unix time 1,700,000,000). The gob-sealed image, the RA key and the session must
// all come back, and the session must authenticate.
func TestRecoversParentDataDir(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	const id = core.ClientID("fixture-client")
	for _, fixture := range []string{"parent_wal", "parent_snapshot"} {
		t.Run(fixture, func(t *testing.T) {
			dir := t.TempDir()
			files, err := os.ReadDir(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				data, err := os.ReadFile(filepath.Join("testdata", fixture, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			st := openState(t, dir, Options{MasterKey: key, Sync: SyncNever})
			defer st.Close()

			dev, err := puf.NewDevice(20232, 1024, puf.Profile{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := puf.Enroll(dev, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.Images().Get(id)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Values {
				if got.Values[i] != want.Values[i] || got.Instability[i] != want.Instability[i] {
					t.Fatalf("recovered image differs at cell %d", i)
				}
			}
			if pk, ok := st.RA().PublicKey(id); !ok || string(pk) != "parent-key" {
				t.Errorf("recovered RA key %q, %v", pk, ok)
			}
			ch, open := maps.Collect(st.Sessions().Challenges())[id]
			if !open || len(ch.AddressMap) != puf.SeedBits {
				t.Fatalf("recovered session: open %v, %d addresses", open, len(ch.AddressMap))
			}

			st.Sessions().SetClock(func() time.Time { return ch.IssuedAt.Add(time.Second) })
			ca, err := core.NewCA(st.Images(), noBackend{t}, &aeskg.Generator{}, st.RA(), core.CAConfig{
				MaxDistance: 2,
				Sessions:    st.Sessions(),
			})
			if err != nil {
				t.Fatal(err)
			}
			m1, err := (&core.Client{ID: id, Device: dev}).Respond(ch)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ca.Authenticate(context.Background(), core.AuthRequest{Client: id, Nonce: ch.Nonce, M1: m1})
			if err != nil || !res.Authenticated {
				t.Fatalf("recovered session: %+v, %v", res, err)
			}
		})
	}
}
