package durable

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ErrTruncated reports that a tail's position has been compacted away:
// the records it wants no longer exist in any segment. The subscriber
// must fall back to a full-state transfer (replication does) or restart
// from a newer sequence number.
var ErrTruncated = errors.New("durable: tail position compacted")

// ErrWALClosed reports that the WAL was closed while a tail was waiting
// for the next record.
var ErrWALClosed = errors.New("durable: WAL closed")

// Tail is a read-only iterator over journaled records, independent of
// the recovery/apply path but for the frame reader. It reads the segment
// files directly and never returns a record the writer has not fully
// written: Append publishes the sequence number only after the whole
// frame is in the file, and Next reads nothing past LastSeq — in
// particular never the preallocated zeros after the active segment's
// last record, so any bad frame it meets is ErrCorrupt. A Tail is
// not safe for concurrent use; run one per subscriber.
type Tail struct {
	w    *wal
	next uint64 // sequence number the next call to Next returns
	f    *os.File
}

// TailFrom opens a read-only tail over the WAL yielding every record
// with sequence number > after, blocking in Next for records that have
// not been appended yet. It fails with ErrTruncated when record after+1
// has already been compacted away. Close the tail when done.
func (w *wal) TailFrom(after uint64) (*Tail, error) {
	starts, err := listSegments(w.dir)
	if err != nil {
		return nil, err
	}
	// after == LastSeq is always valid (pure live tailing), even when
	// the segment holding after+1 does not exist yet.
	if after < w.LastSeq() {
		if len(starts) == 0 || after+1 < starts[0] {
			return nil, fmt.Errorf("%w: want %d, oldest segment starts at %d",
				ErrTruncated, after+1, firstOr(starts, 0))
		}
	}
	return &Tail{w: w, next: after + 1}, nil
}

func firstOr(s []uint64, def uint64) uint64 {
	if len(s) == 0 {
		return def
	}
	return s[0]
}

// Ready reports whether Next has a record to return without waiting for
// an append. It takes no lock: a streamer asks it after every record to
// decide whether to batch more or flush what it has.
func (t *Tail) Ready() bool { return t.next <= t.w.LastSeq() }

// closedChan is what Wait returns when there is nothing to wait for.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Wait returns a channel that is closed once Ready would report true or
// the WAL closes, for a caller that selects on its own timer beside it
// instead of blocking in Next.
func (t *Tail) Wait() <-chan struct{} {
	ch := t.w.appendWait()
	if t.Ready() { // see Next: re-check after subscribing
		return closedChan
	}
	return ch
}

// Next blocks until record t.next exists and returns its sequence
// number and payload. The payload is freshly allocated and owned by the
// caller. It fails with ErrTruncated if compaction outran the tail,
// ErrWALClosed if the WAL closed while waiting, or ctx.Err.
func (t *Tail) Next(ctx context.Context) (uint64, []byte, error) {
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if !t.Ready() {
			// Subscribe first, then re-check: an append racing this call
			// closed an earlier channel, and waiting on the fresh one
			// without re-checking would miss it.
			ch := t.w.appendWait()
			if t.Ready() {
				continue
			}
			if t.w.isClosed() {
				return 0, nil, ErrWALClosed
			}
			select {
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			case <-ch:
			}
			continue
		}
		if t.f == nil {
			if err := t.open(); err != nil {
				return 0, nil, err
			}
		}
		payload, err := readFrame(t.f, t.next)
		if err == io.EOF {
			// This segment is exhausted but t.next <= LastSeq, so the
			// record lives in a later segment (the writer rotated).
			t.f.Close()
			t.f = nil
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		t.next++
		return t.next - 1, payload, nil
	}
}

// open positions the tail at record t.next: the segment with the
// greatest start <= t.next, skipped forward record by record.
func (t *Tail) open() error {
	starts, err := listSegments(t.w.dir)
	if err != nil {
		return err
	}
	i := sort.Search(len(starts), func(i int) bool { return starts[i] > t.next }) - 1
	if i < 0 {
		return fmt.Errorf("%w: want %d, oldest segment starts at %d",
			ErrTruncated, t.next, firstOr(starts, 0))
	}
	f, err := os.Open(filepath.Join(t.w.dir, segName(starts[i])))
	if err != nil {
		if os.IsNotExist(err) {
			// Compacted between the listing and the open.
			return fmt.Errorf("%w: want %d", ErrTruncated, t.next)
		}
		return err
	}
	for seq := starts[i]; seq < t.next; seq++ {
		if _, err := readFrame(f, seq); err != nil {
			f.Close()
			if err == io.EOF {
				// The segment ends before t.next although the next segment
				// starts after it: the records in between never existed (a
				// snapshot covered them across a torn tail). For a tail that
				// is the same situation as compaction.
				return fmt.Errorf("%w: want %d, gap after %d", ErrTruncated, t.next, seq-1)
			}
			return err
		}
	}
	t.f = f
	return nil
}

// Close releases the tail's file handle. The WAL itself is unaffected.
func (t *Tail) Close() error {
	if t.f != nil {
		err := t.f.Close()
		t.f = nil
		return err
	}
	return nil
}
