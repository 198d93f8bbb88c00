package durable

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// the recovery/apply path. It reads the segment files directly and
// never returns a record the writer has not fully written: Append
// publishes the sequence number only after the whole frame is in the
// file, and Next reads nothing past LastSeq — in particular never the
// preallocated zeros after the active segment's last record. A Tail is
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

// Next blocks until record t.next exists and returns its sequence
// number and payload. The payload is freshly allocated and owned by the
// caller. It fails with ErrTruncated if compaction outran the tail,
// ErrWALClosed if the WAL closed while waiting, or ctx.Err.
func (t *Tail) Next(ctx context.Context) (uint64, []byte, error) {
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if t.next > t.w.LastSeq() {
			// Subscribe first, then re-check: an append racing this call
			// closed an earlier channel, and waiting on the fresh one
			// without re-checking would miss it.
			ch := t.w.appendWait()
			if t.next <= t.w.LastSeq() {
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
		seq, payload, err := t.readFrame()
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
		t.next = seq + 1
		return seq, payload, nil
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
	t.f = f
	for seq := starts[i]; seq < t.next; seq++ {
		hdr, err := t.readHeader(seq)
		if err == io.EOF {
			// The segment ends before t.next although the next segment
			// starts after it: the records in between never existed (a
			// snapshot covered them across a torn tail). For a tail that
			// is the same situation as compaction.
			t.f.Close()
			t.f = nil
			return fmt.Errorf("%w: want %d, gap after %d", ErrTruncated, t.next, seq-1)
		}
		if err != nil {
			t.f.Close()
			t.f = nil
			return err
		}
		if _, err := f.Seek(int64(binary.BigEndian.Uint32(hdr[8:12])), io.SeekCurrent); err != nil {
			t.f.Close()
			t.f = nil
			return err
		}
	}
	return nil
}

// readHeader reads and validates one record header that must carry seq.
func (t *Tail) readHeader(seq uint64) ([recordHeader]byte, error) {
	var hdr [recordHeader]byte
	if _, err := io.ReadFull(t.f, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return hdr, err
	}
	rseq := binary.BigEndian.Uint64(hdr[0:8])
	plen := binary.BigEndian.Uint32(hdr[8:12])
	if plen == 0 || plen > maxRecordLen || rseq != seq {
		return hdr, fmt.Errorf("%w: tail read record %d, want %d", ErrCorrupt, rseq, seq)
	}
	return hdr, nil
}

// readFrame reads the frame for record t.next at the current position.
func (t *Tail) readFrame() (uint64, []byte, error) {
	hdr, err := t.readHeader(t.next)
	if err != nil {
		return 0, nil, err
	}
	plen := binary.BigEndian.Uint32(hdr[8:12])
	crc := binary.BigEndian.Uint32(hdr[12:16])
	payload := make([]byte, plen)
	if _, err := io.ReadFull(t.f, payload); err != nil {
		// t.next <= LastSeq, so the frame is fully written: a short
		// payload is damage, not a torn tail.
		return 0, nil, fmt.Errorf("%w: tail short payload at %d", ErrCorrupt, t.next)
	}
	if crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, payload) != crc {
		return 0, nil, fmt.Errorf("%w: tail checksum mismatch at %d", ErrCorrupt, t.next)
	}
	return t.next, payload, nil
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
