package durable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrTruncated reports that a tail's position is not in the log: the
// records it wants were compacted away, or it lies past the log's end —
// the subscriber holds records this log lost (a crash took a tail the
// subscriber had already read). Either way the subscriber must fall back
// to a full-state transfer (replication does) or restart from another
// sequence number.
var ErrTruncated = errors.New("durable: tail position not in the log")

// ErrWALClosed reports that the WAL was closed while a tail was waiting
// for the next record.
var ErrWALClosed = errors.New("durable: WAL closed")

// Tail is a read-only iterator over journaled records, independent of
// the recovery/apply path. A live tail copies each record from the WAL's
// in-memory window of recent frames; one that has fallen behind the
// window reads the segment files. It never returns a record the writer
// has not fully written, nor under SyncAlways one that is not yet
// durable: Next reads nothing past visibleSeq — in particular never the
// preallocated zeros after the active segment's last record, so any bad
// frame it meets is ErrCorrupt. A Tail is not safe for concurrent use;
// run one per subscriber.
type Tail struct {
	w    *wal
	next uint64 // sequence number the next call to Next returns
	f    *os.File
	buf  []byte // the payload Next last copied from the window
	// at is where the last record copied from the window ends in its
	// segment, so a tail that falls behind the window resumes reading
	// the file there; zero when the file position is not known.
	at framePos
}

// TailFrom opens a read-only tail over the WAL yielding every record
// with sequence number > after, blocking in Next for records that are
// not visible yet. It fails with ErrTruncated when record after+1 has
// already been compacted away, or when after is past the last record.
// Close the tail when done.
func (w *wal) TailFrom(after uint64) (*Tail, error) {
	starts, err := listSegments(w.dir)
	if err != nil {
		return nil, err
	}
	// after == LastSeq is always valid (pure live tailing), even when
	// the segment holding after+1 does not exist yet.
	switch last := w.LastSeq(); {
	case after > last:
		return nil, fmt.Errorf("%w: want %d, the log ends at %d", ErrTruncated, after+1, last)
	case after < last && (len(starts) == 0 || after+1 < starts[0]):
		return nil, fmt.Errorf("%w: want %d, oldest segment starts at %d",
			ErrTruncated, after+1, firstOr(starts, 0))
	}
	w.win.enable()
	return &Tail{w: w, next: after + 1}, nil
}

func firstOr(s []uint64, def uint64) uint64 {
	if len(s) == 0 {
		return def
	}
	return s[0]
}

// Ready reports whether Next has a record to return without waiting for
// an append (under SyncAlways, a barrier). It takes no lock: a streamer
// asks it after every record to decide whether to batch more or flush
// what it has.
func (t *Tail) Ready() bool { return t.next <= t.w.visibleSeq() }

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
	ch := t.w.tailWait()
	if t.Ready() { // see Next: re-check after subscribing
		return closedChan
	}
	return ch
}

// Next blocks until record t.next is visible and returns its sequence
// number and payload. The payload is valid until the next call. A live
// tail makes no syscall and no allocation here: the record is copied
// from the window. Next fails with ErrTruncated if compaction outran the
// tail, ErrWALClosed if the WAL closed while waiting, or ctx.Err.
func (t *Tail) Next(ctx context.Context) (uint64, []byte, error) {
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if !t.Ready() {
			// Subscribe first, then re-check: a wake racing this call
			// closed an earlier channel, and waiting on the fresh one
			// without re-checking would miss it.
			ch := t.w.tailWait()
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
		if p, at, ok := t.w.win.read(t.next, t.buf); ok {
			t.buf, t.at = p, at
			if t.f != nil {
				// Caught up with the window: the file position goes stale
				// from here on.
				t.f.Close()
				t.f = nil
			}
			t.next++
			return t.next - 1, p, nil
		}
		if t.f == nil {
			if err := t.open(); err != nil {
				return 0, nil, err
			}
		}
		payload, err := readFrame(t.f, t.next)
		if err == io.EOF {
			// This segment is exhausted but record t.next is visible, so
			// it lives in a later segment (the writer rotated).
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

// open positions the tail at record t.next: where the last record read
// from the window ended, or else in the segment with the greatest start
// <= t.next, skipped forward record by record.
func (t *Tail) open() error {
	if at := t.at; at.seg != 0 {
		t.at = framePos{}
		f, err := os.Open(filepath.Join(t.w.dir, segName(at.seg)))
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: want %d", ErrTruncated, t.next)
		}
		if err == nil {
			_, err = f.Seek(at.end, io.SeekStart)
		}
		if err != nil {
			f.Close()
			return err
		}
		t.f = f
		return nil
	}
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

// windowBytes bounds the frames a WAL keeps in memory for its tails.
const windowBytes = 1 << 20

// window keeps the frames of the newest records in memory, so a live tail
// copies a record instead of reading it back from the segment file. It
// fills only once a tail has been opened, holds at most windowBytes, and
// drops its older half when full; a record it no longer holds is read
// from the file.
type window struct {
	on    atomic.Bool
	mu    sync.Mutex
	buf   []byte     // the frames of records first, first+1, ... back to back
	ends  []int      // ends[i]: the offset in buf past record first+i
	at    []framePos // at[i]: where record first+i ends in its segment
	first uint64
}

// framePos is a place in the log: an offset in the segment that starts
// at record seg.
type framePos struct {
	seg uint64
	end int64
}

// enable starts filling the window with the records appended from now on.
func (win *window) enable() {
	if win.on.Load() {
		return
	}
	win.mu.Lock()
	defer win.mu.Unlock()
	if win.buf == nil {
		win.buf = make([]byte, 0, windowBytes)
	}
	win.on.Store(true)
}

// add appends the frames of consecutive records, the first numbered
// first, as Append wrote them at offset off of the segment starting at
// record seg.
func (win *window) add(first uint64, frames []byte, seg uint64, off int64) {
	if !win.on.Load() {
		return
	}
	win.mu.Lock()
	defer win.mu.Unlock()
	if len(win.ends) > 0 && first != win.first+uint64(len(win.ends)) {
		win.ends, win.at = win.ends[:0], win.at[:0] // not contiguous: start over
	}
	if len(frames) > windowBytes/2 {
		win.ends, win.at = win.ends[:0], win.at[:0] // tails read an outsized batch from the file
		return
	}
	if len(win.ends) == 0 {
		win.first, win.buf = first, win.buf[:0]
	}
	if len(win.buf)+len(frames) > windowBytes {
		win.drop(len(win.buf) + len(frames) - windowBytes/2)
	}
	base := len(win.buf)
	win.buf = append(win.buf, frames...)
	for end := 0; end < len(frames); {
		end += recordHeader + int(binary.BigEndian.Uint32(frames[end+8:end+12]))
		win.ends = append(win.ends, base+end)
		win.at = append(win.at, framePos{seg, off + int64(end)})
	}
}

// drop removes the oldest records until at least n bytes are gone.
func (win *window) drop(n int) {
	k := 0
	for k < len(win.ends) && win.ends[k] < n {
		k++
	}
	if k == len(win.ends) {
		win.ends, win.at, win.buf = win.ends[:0], win.at[:0], win.buf[:0]
		return
	}
	cut := win.ends[k]
	win.buf = win.buf[:copy(win.buf, win.buf[cut:])]
	for i, end := range win.ends[k+1:] {
		win.ends[i] = end - cut
	}
	win.ends = win.ends[:len(win.ends)-k-1]
	win.at = win.at[:copy(win.at, win.at[k+1:])]
	win.first += uint64(k + 1)
}

// read copies record seq's payload into dst's storage and returns where
// the record ends in the log, reporting false when the window does not
// hold it.
func (win *window) read(seq uint64, dst []byte) ([]byte, framePos, bool) {
	if !win.on.Load() {
		return dst, framePos{}, false
	}
	win.mu.Lock()
	defer win.mu.Unlock()
	if seq < win.first || seq-win.first >= uint64(len(win.ends)) {
		return dst, framePos{}, false
	}
	i := int(seq - win.first)
	start := 0
	if i > 0 {
		start = win.ends[i-1]
	}
	return append(dst[:0], win.buf[start+recordHeader:win.ends[i]]...), win.at[i], true
}
