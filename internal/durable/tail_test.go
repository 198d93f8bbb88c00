package durable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
)

// TestTailSeesLiveAppends: a tail started before records exist sees
// records appended after it started, in order, without going through the
// apply callback — as they are appended, or under SyncAlways once a
// barrier has made them durable and not before.
func TestTailSeesLiveAppends(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNever, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			w, _, _ := collectWAL(t, t.TempDir(), walConfig{policy: policy}, 0)
			defer w.Close()

			tail, err := w.TailFrom(0)
			if err != nil {
				t.Fatal(err)
			}
			defer tail.Close()

			type result struct {
				seq     uint64
				payload []byte
			}
			got := make(chan result, 16)
			errs := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				for i := 0; i < 10; i++ {
					seq, p, err := tail.Next(ctx)
					if err != nil {
						errs <- err
						return
					}
					got <- result{seq, bytes.Clone(p)}
				}
				close(got)
			}()

			var want [][]byte
			for i := 0; i < 10; i++ {
				p := []byte(fmt.Sprintf("live-%03d", i))
				if _, err := w.Append(p); err != nil {
					t.Fatal(err)
				}
				want = append(want, p)
			}
			if policy == SyncAlways {
				select {
				case r := <-got:
					t.Fatalf("record %d reached the tail before its barrier", r.seq)
				case <-time.After(20 * time.Millisecond):
				}
				if err := w.Commit(w.LastSeq()); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			for {
				select {
				case err := <-errs:
					t.Fatal(err)
				case r, ok := <-got:
					if !ok {
						if i != 10 {
							t.Fatalf("tailed %d records, want 10", i)
						}
						return
					}
					if r.seq != uint64(i+1) || !bytes.Equal(r.payload, want[i]) {
						t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, r.seq, r.payload, i+1, want[i])
					}
					i++
				case <-time.After(10 * time.Second):
					t.Fatal("tail stalled")
				}
			}
		})
	}
}

// TestTailWaitsForTheBarrier: under SyncAlways, records appended while a
// barrier is held open reach no tail until a barrier covering them
// returns, and the records one barrier covers become visible together.
func TestTailWaitsForTheBarrier(t *testing.T) {
	w, _, _ := collectWAL(t, t.TempDir(), walConfig{policy: SyncAlways}, 0)
	defer w.Close()
	spy := spyOn(w)
	tail, err := w.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	first, err := w.Append([]byte("covered"))
	if err != nil {
		t.Fatal(err)
	}
	spy.block.Store(true)
	committed := make(chan error, 1)
	go func() { committed <- w.Commit(first) }()
	<-spy.entered
	last, err := w.Append([]byte("open"), []byte("close"), []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	if tail.Ready() {
		t.Fatal("a record reached the tail while its barrier was in flight")
	}
	spy.block.Store(false)
	spy.release <- struct{}{}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if seq, p, err := tail.Next(ctx); err != nil || seq != first || string(p) != "covered" {
		t.Fatalf("after the barrier: (%d, %q, %v), want (%d, covered)", seq, p, err, first)
	}
	if tail.Ready() {
		t.Fatal("records appended after the barrier's cut reached the tail")
	}
	if err := w.Commit(last); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"open", "close", "key"} {
		if !tail.Ready() {
			t.Fatalf("%s not ready after the barrier that covers it", want)
		}
		if _, p, err := tail.Next(ctx); err != nil || string(p) != want {
			t.Fatalf("tailed (%q, %v), want %q", p, err, want)
		}
	}
}

// TestTailFallsBackBehindTheWindow: a tail that falls more than the
// in-memory window behind reads the segment files, and returns to the
// window once it catches up, with every record in order — the second
// time from where it left the file, not from its segment's start.
func TestTailFallsBackBehindTheWindow(t *testing.T) {
	w, _, _ := collectWAL(t, t.TempDir(), walConfig{segBytes: 256 << 10}, 0)
	defer w.Close()
	tail, err := w.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	payload := func(i int) []byte { return fmt.Appendf(bytes.Repeat([]byte{'x'}, 1000), "-%06d", i) }
	n := 3 * windowBytes / 1000
	for i := 0; i < n; i++ {
		if _, err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.win.first <= 1 {
		t.Fatalf("window starts at record %d: the tail is not behind it", w.win.first)
	}
	ctx := context.Background()
	for i := 0; i < n+10; i++ {
		if i == n {
			for j := n; j < n+10; j++ {
				if _, err := w.Append(payload(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		seq, p, err := tail.Next(ctx)
		if err != nil || seq != uint64(i+1) || !bytes.Equal(p, payload(i)) {
			t.Fatalf("record %d: (%d, %.12q…, %v)", i+1, seq, p, err)
		}
	}
	if tail.f != nil {
		t.Error("a caught-up tail still reads the segment file")
	}

	// Behind the window a second time, the tail resumes the file where
	// the last record it copied ends, without rereading its segment from
	// the start: the segment's first frame is now unreadable.
	f, err := os.OpenFile(filepath.Join(w.dir, segName(tail.at.seg)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage!"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := n + 10; i < 2*n+10; i++ {
		if _, err := w.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := n + 10; i < 2*n+10; i++ {
		seq, p, err := tail.Next(ctx)
		if err != nil || seq != uint64(i+1) || !bytes.Equal(p, payload(i)) {
			t.Fatalf("record %d after falling behind again: (%d, %.12q…, %v)", i+1, seq, p, err)
		}
	}
}

// TestTailNextAllocatesNothingLive: a live tail copies each record out of
// the window, with no allocation once its buffer has grown.
func TestTailNextAllocatesNothingLive(t *testing.T) {
	if cpu.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	w, _, _ := collectWAL(t, t.TempDir(), walConfig{}, 0)
	defer w.Close()
	tail, err := w.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	payload := bytes.Repeat([]byte{'r'}, 400)
	ctx := context.Background()
	step := func() {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		if _, p, err := tail.Next(ctx); err != nil || !bytes.Equal(p, payload) {
			t.Fatalf("tailed (%d bytes, %v)", len(p), err)
		}
	}
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 1000
	for range n {
		step()
	}
	runtime.ReadMemStats(&after)
	if perRecord := float64(after.Mallocs-before.Mallocs) / n; perRecord > 0.1 {
		t.Errorf("append + live Next allocate %.2f objects per record", perRecord)
	}
}

// TestTailAcrossRotation: a tail follows the writer across segment
// boundaries, including records appended before the tail started.
func TestTailAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	w, _, _ := collectWAL(t, dir, walConfig{segBytes: 64}, 0)
	defer w.Close()

	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("seg-%03d", i))
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}

	tail, err := w.TailFrom(5)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 5; i < 20; i++ {
		seq, p, err := tail.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) || !bytes.Equal(p, want[i]) {
			t.Fatalf("record = (%d, %q), want (%d, %q)", seq, p, i+1, want[i])
		}
	}
}

// TestTailFromCompactedFailsTruncated: asking for records a snapshot
// compacted away must fail loudly, not silently skip.
func TestTailFromCompactedFailsTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := collectWAL(t, dir, walConfig{segBytes: 64}, 0)
	defer w.Close()
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("c-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if removed, err := w.CompactBefore(10); err != nil || removed == 0 {
		t.Fatalf("CompactBefore removed %d segments, err=%v", removed, err)
	}
	if _, err := w.TailFrom(0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("TailFrom(0) after compaction = %v, want ErrTruncated", err)
	}
	// Tailing the live edge still works.
	tail, err := w.TailFrom(w.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	tail.Close()
}

// TestTailNextCancel: a blocked Next honours context cancellation.
func TestTailNextCancel(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := collectWAL(t, dir, walConfig{}, 0)
	defer w.Close()
	tail, err := w.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, _, err := tail.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next on empty WAL = %v, want context.Canceled", err)
	}
}

// TestTailWALClose: closing the WAL releases a blocked Next with
// ErrWALClosed instead of hanging it.
func TestTailWALClose(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := collectWAL(t, dir, walConfig{}, 0)
	tail, err := w.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	errs := make(chan error, 1)
	go func() {
		_, _, err := tail.Next(context.Background())
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if !errors.Is(err, ErrWALClosed) {
			t.Fatalf("Next across Close = %v, want ErrWALClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next not released by Close")
	}
}

// TestTailReadyAndWait: Ready tracks the log's end without blocking, and
// Wait's channel closes on the next append (already closed when a record
// is ready) and on Close, so a streamer can select on it beside a timer.
func TestTailReadyAndWait(t *testing.T) {
	w, _, _ := collectWAL(t, t.TempDir(), walConfig{}, 0)
	tail, err := w.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	}
	if tail.Ready() {
		t.Fatal("Ready on an empty log")
	}
	wait := tail.Wait()
	if closed(wait) {
		t.Fatal("Wait closed with nothing appended")
	}
	if _, err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if !closed(wait) || !tail.Ready() || !closed(tail.Wait()) {
		t.Fatal("an append did not make the tail ready")
	}
	if _, _, err := tail.Next(context.Background()); err != nil || tail.Ready() {
		t.Fatalf("after Next: err %v, Ready %v", err, tail.Ready())
	}
	wait = tail.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !closed(wait) || tail.Ready() {
		t.Fatal("Close did not release Wait")
	}
}

// TestStateIngestReplaysIntoStores: Ingest journals a foreign payload
// under a local sequence number and applies it, and the result survives
// reopening — the follower half of replication in miniature.
func TestStateIngestReplaysIntoStores(t *testing.T) {
	var key [32]byte
	key[0] = 7

	// A "primary" state produces journaled records.
	primaryDir := t.TempDir()
	p, err := Open(Options{Dir: primaryDir, MasterKey: key})
	if err != nil {
		t.Fatal(err)
	}
	im := enrollImage(t)
	if err := p.Images().Put("alice", im); err != nil {
		t.Fatal(err)
	}
	if err := p.RA().Update("alice", []byte("alice-key")); err != nil {
		t.Fatal(err)
	}
	tail, err := p.TailFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	// A "follower" ingests them.
	followerDir := t.TempDir()
	f, err := Open(Options{Dir: followerDir, MasterKey: key})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for f.LastSeq() < p.LastSeq() {
		_, payload, err := tail.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Ingest(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The ingested state survives recovery like native state.
	f2, err := Open(Options{Dir: followerDir, MasterKey: key})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	img, err := f2.Images().Get("alice")
	if err != nil || img == nil || len(img.Values) != len(im.Values) {
		t.Fatalf("follower image mismatch, err=%v", err)
	}
	for i := range im.Values {
		if img.Values[i] != im.Values[i] {
			t.Fatalf("follower image cell %d differs", i)
		}
	}
	if pk, ok := f2.RA().PublicKey("alice"); !ok || !bytes.Equal(pk, []byte("alice-key")) {
		t.Fatalf("follower RA key = %q, ok=%v", pk, ok)
	}
}

// TestStateIngestRejectsGarbage: a corrupt payload is rejected before
// anything reaches the WAL or the stores.
func TestStateIngestRejectsGarbage(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.LastSeq()
	if _, err := s.Ingest([]byte{0xff, 0xfe}); err == nil {
		t.Fatal("garbage payload ingested")
	}
	if s.LastSeq() != before {
		t.Fatal("garbage payload advanced the WAL")
	}
	if _, err := s.Ingest(nil); err == nil {
		t.Fatal("empty payload ingested")
	}
}

// TestStateIngestIsIdempotent: re-delivering the same payload (a
// reconnect replaying an unacked suffix) converges to the same state.
func TestStateIngestIsIdempotent(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := &Record{Op: OpRAKey, ID: core.ClientID("bob"), Blob: []byte("bob-key")}
	payload, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Ingest(payload); err != nil {
			t.Fatal(err)
		}
	}
	if pk, ok := s.RA().PublicKey("bob"); !ok || !bytes.Equal(pk, []byte("bob-key")) {
		t.Fatalf("RA key after re-delivery = %q, ok=%v", pk, ok)
	}
	if s.RA().Len() != 1 {
		t.Fatalf("RA len = %d, want 1", s.RA().Len())
	}
}
