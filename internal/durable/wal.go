package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbcsalted/internal/obs"
	"rbcsalted/internal/wire"
)

// SyncPolicy selects when the WAL calls fsync.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs on a background ticker
	// (Options.SyncInterval, default 100 ms): bounded data loss at a
	// small fraction of SyncAlways's cost.
	SyncInterval SyncPolicy = iota
	// SyncAlways makes every mutation durable before the reply that
	// acknowledges it: appends only write, and Commit — one barrier per
	// request, shared by every concurrent committer it covers — syncs. No
	// acknowledged mutation is ever lost, and a tail sees a record only
	// once it is durable.
	SyncAlways
	// SyncNever leaves flushing to the OS page cache: fastest, loses up
	// to the OS writeback window on power failure (a clean process kill
	// loses nothing — the data is already in the page cache).
	SyncNever
)

// String names the policy (and is the -sync flag vocabulary).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy-%d", int(p))
	}
}

// ParseSyncPolicy parses the -sync flag vocabulary.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("durable: unknown sync policy %q (always|interval|never)", s)
	}
}

// Record framing inside a segment:
//
//	offset size
//	0      8    sequence number (big endian)
//	8      4    payload length
//	12     4    CRC-32C (Castagnoli) over bytes 0..12 and the payload
//	16     n    payload (one encoded Record)
//
// The CRC covers the header, so a bit flip in seq or length is detected
// as reliably as one in the payload. Snapshots and enrolment files hold
// records in the same frames (snapshot.go); appendFrame writes one and
// readFrame reads one, for the log and those files alike.
const recordHeader = 16

// maxRecordLen bounds a frame's payload: larger is corruption.
const maxRecordLen = 1 << 25

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame reports a frame that is torn, out of sequence, of an
// impossible length or fails its checksum. It is ErrCorrupt but at the
// tail of the log, where recovery repairs it.
var errBadFrame = fmt.Errorf("%w: bad frame", ErrCorrupt)

// appendFrame appends payload to dst framed as record seq.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	hdr := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	sum := crc32.Update(crc32.Checksum(dst[hdr:], castagnoli), castagnoli, payload)
	dst = binary.BigEndian.AppendUint32(dst, sum)
	return append(dst, payload...)
}

// readFrame reads the frame of record want from r and returns its
// payload, freshly allocated. It returns io.EOF when r ends exactly where
// the frame would start, and an error wrapping errBadFrame when the frame
// is torn, carries another sequence number or an impossible length, or
// fails its checksum.
func readFrame(r io.Reader, want uint64) ([]byte, error) {
	var hdr [recordHeader]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: torn header (%d bytes)", errBadFrame, n)
		}
		return nil, err
	}
	seq := binary.BigEndian.Uint64(hdr[0:8])
	n := int(binary.BigEndian.Uint32(hdr[8:12]))
	if n == 0 || n > maxRecordLen || seq != want {
		return nil, fmt.Errorf("%w: header of record %d (%d bytes), want record %d", errBadFrame, seq, n, want)
	}
	payload, err := wire.ReadClaimed(r, n)
	if err == io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("%w: torn payload of record %d", errBadFrame, seq)
	}
	if err != nil {
		return nil, err
	}
	if crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, payload) != binary.BigEndian.Uint32(hdr[12:16]) {
		return nil, fmt.Errorf("%w: checksum mismatch in record %d", errBadFrame, seq)
	}
	return payload, nil
}

// ErrCorrupt reports unrecoverable WAL damage: a torn or corrupt record
// that is NOT at the tail of the log. Tail damage is expected after a
// crash and is repaired by truncation; damage with intact records after
// it means the storage lied and recovery refuses to guess.
var ErrCorrupt = errors.New("durable: WAL corrupt before tail")

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segName(start uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, start, segSuffix)
}

// segStart parses a segment filename into its starting sequence number.
func segStartFromName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// walConfig sizes and paces a WAL.
type walConfig struct {
	policy   SyncPolicy
	interval time.Duration
	segBytes int64
}

// wal is a segmented write-ahead log. Appends are serialized by mu and
// only write; durability is a separate barrier (Commit) that one leader
// at a time takes for every committer it covers, outside mu, so appends
// continue while an fsync is in flight. LastSeq is lock-free so
// snapshots can take a sequence cut without stalling writers.
//
// Tails are woken per append, or under SyncAlways per barrier: there a
// tail reads only durable records, so the records one barrier covers
// leave together. Lock order: mu, then cmu, then nmu.
type wal struct {
	dir string
	cfg walConfig
	// prealloc: segments are fallocated to cfg.segBytes when created, so
	// a barrier on the active segment has no size or extent change to
	// journal. Set under SyncAlways where the platform supports it.
	prealloc bool

	seq        atomic.Uint64 // last assigned sequence number
	durableSeq atomic.Uint64 // synced, for lock-free readers
	closed     atomic.Bool   // set by Close, under mu

	mu       sync.Mutex
	f        *os.File // replaced only while holding mu and the sync token
	size     int64    // logical size: where the next frame is written
	segStart uint64
	frame    []byte // append's frame buffer, reused under mu up to wire.Chunk

	// nmu guards notify, which is closed and renewed whenever tails may
	// have more to read; see tailWait.
	nmu    sync.Mutex
	notify chan struct{}

	// win holds the newest frames for live tails (tail.go).
	win window

	// Commit state. syncing is a token: its holder alone may fsync,
	// truncate, close or replace f. A Commit leader holds it without mu;
	// rotation and Close take it while holding mu (lock order mu -> cmu).
	cmu     sync.Mutex
	ccond   *sync.Cond
	synced  uint64 // every record <= synced is durable
	syncing bool
	syncErr error // first failed fsync; sticky, see syncTo

	// syncFile makes f's written records durable, syncDir the entries of
	// a directory. Fields only so tests can count, block and fail them.
	syncFile func(f *os.File) error
	syncDir  func(dir string) error

	stop chan struct{}
	done chan struct{}

	metrics *walMetrics
}

// walMetrics is filled in by State when an obs registry is attached.
type walMetrics struct {
	appends, appendBytes, rotations *obs.Counter
	fsyncSecs                       *obs.Histogram
}

// openWAL scans dir's segments in order, replays every record with
// seq > from through apply, repairs a torn tail by truncation, and
// returns the WAL positioned for appending and what it found (the
// snapshot fields left to the caller).
func openWAL(dir string, cfg walConfig, from uint64, apply func(seq uint64, payload []byte) error) (*wal, RecoveryStats, error) {
	var rec RecoveryStats
	if cfg.segBytes <= 0 {
		cfg.segBytes = 8 << 20
	}
	if cfg.interval <= 0 {
		cfg.interval = 100 * time.Millisecond
	}
	starts, err := listSegments(dir)
	if err != nil {
		return nil, rec, err
	}
	rec.Segments = len(starts)

	w := &wal{dir: dir, cfg: cfg, prealloc: cfg.policy == SyncAlways, syncFile: datasync, syncDir: SyncDir}
	w.ccond = sync.NewCond(&w.cmu)
	// Records are numbered sequentially across segments; a segment's
	// filename is its first record's sequence number. Continuity is
	// checked in file order, from record 1: a gap — before the oldest
	// segment or between two — is tolerated only when every missing
	// record is covered by the snapshot cut (from). Compaction leaves the
	// first shape behind, and a torn tail that ate records a snapshot had
	// already captured, followed by a fresh segment past the cut, the
	// second.
	var (
		fileSeq uint64
		lastEnd int64 // logical end of the newest segment
	)
	for i, start := range starts {
		if start <= fileSeq || (start != fileSeq+1 && start > from+1) {
			return nil, rec, fmt.Errorf("%w: segment %s does not continue record %d",
				ErrCorrupt, segName(start), fileSeq)
		}
		last := i == len(starts)-1
		path := filepath.Join(dir, segName(start))
		seq, end, err := w.replaySegment(path, last, start-1, from, apply, &rec)
		if err != nil {
			return nil, rec, err
		}
		lastEnd = end
		if seq > fileSeq {
			fileSeq = seq
		}
	}
	lastSeq := fileSeq
	if from > lastSeq {
		// The snapshot is ahead of the surviving log (e.g. the tail was
		// torn away after the snapshot): never reissue sequence numbers.
		lastSeq = from
	}
	w.seq.Store(lastSeq)
	// Recovered records need no barrier of their own: they sit in sealed
	// segments or in the active one, where the next barrier covers them.
	w.synced = lastSeq
	w.durableSeq.Store(lastSeq)

	// Append into the newest segment — unless the snapshot is ahead of
	// it, in which case continuing it would punch a sequence gap into
	// the middle of a segment; start a fresh one past the cut instead
	// (and seal the old one: a sealed segment has no preallocated tail).
	start, size := lastSeq+1, int64(0)
	if len(starts) > 0 {
		newest := starts[len(starts)-1]
		if from <= fileSeq {
			start, size = newest, lastEnd
		} else if err := sealSegment(filepath.Join(dir, segName(newest)), lastEnd); err != nil {
			return nil, rec, err
		}
	}
	if err := w.openSegment(start, size); err != nil {
		return nil, rec, err
	}

	if cfg.policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, rec, nil
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list WAL dir: %w", err)
	}
	var starts []uint64
	for _, e := range entries {
		if start, ok := segStartFromName(e.Name()); ok {
			starts = append(starts, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// replaySegment reads one segment and returns the last sequence number
// it holds and its logical end (the offset past its last whole record).
// In the last segment the log ends at the first offset where no valid
// record starts: nothing but zeros from there on is the untouched rest
// of a preallocated segment — a clean end, after a clean stop or a
// kill -9 alike — and anything else is a torn tail, truncated away. In
// any other segment either is ErrCorrupt. prevSeq is the last sequence
// number seen so far — records must be strictly increasing.
func (w *wal) replaySegment(path string, last bool, prevSeq, from uint64, apply func(uint64, []byte) error, rec *RecoveryStats) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()

	var (
		r      = bufio.NewReaderSize(f, wire.Chunk)
		offset int64
		seq    = prevSeq
	)
	for {
		payload, err := readFrame(r, seq+1)
		if err == io.EOF {
			return seq, offset, nil // the file ends with its last record
		}
		if errors.Is(err, errBadFrame) {
			if !last {
				return 0, 0, fmt.Errorf("%w at %s offset %d", err, filepath.Base(path), offset)
			}
			torn, err := nonzeroExtent(f, offset)
			if err != nil {
				return 0, 0, err
			}
			if torn > 0 {
				rec.TornBytes = torn
				rec.Truncated = true
				if err := os.Truncate(path, offset); err != nil {
					return 0, 0, fmt.Errorf("durable: truncate torn tail: %w", err)
				}
			}
			return seq, offset, nil
		}
		if err != nil {
			return 0, 0, err
		}
		seq++
		if seq > from {
			if err := apply(seq, payload); err != nil {
				return 0, 0, fmt.Errorf("durable: replay record %d: %w", seq, err)
			}
			rec.Records++
		} else {
			rec.Skipped++
		}
		offset += recordHeader + int64(len(payload))
	}
}

// nonzeroExtent returns how many bytes from off reach through the last
// nonzero byte of f: 0 when only zeros (or nothing) follow off.
func nonzeroExtent(f *os.File, off int64) (int64, error) {
	var (
		buf    = make([]byte, 64<<10)
		extent int64
	)
	for pos := off; ; {
		n, err := f.ReadAt(buf, pos)
		for i := n - 1; i >= 0; i-- {
			if buf[i] != 0 {
				extent = pos + int64(i) + 1 - off
				break
			}
		}
		pos += int64(n)
		if err == io.EOF {
			return extent, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// sealSegment cuts a segment file to its logical size, durably: a sealed
// segment ends with its last record, never with a preallocated tail.
func sealSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("durable: seal segment: %w", err)
	}
	err = sealFile(f, size)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func sealFile(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("durable: seal segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	return nil
}

// sealActive seals and closes the active segment; the caller holds mu
// and the sync token.
func (w *wal) sealActive() error {
	err := sealFile(w.f, w.size)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegment makes the segment starting at record start the active one,
// creating it if needed, with size bytes of records already in it. Under
// preallocation the file is extended to the segment size and fsynced
// here, once, so that no barrier on it has a size change to journal.
// The caller holds mu and the sync token (or is openWAL).
func (w *wal) openSegment(start uint64, size int64) error {
	// Frames go in with WriteAt at the logical offset, which O_APPEND
	// would override.
	f, err := os.OpenFile(filepath.Join(w.dir, segName(start)), os.O_CREATE|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("durable: open segment: %w", err)
	}
	if w.prealloc && size < w.cfg.segBytes {
		switch err := preallocate(f, w.cfg.segBytes); {
		case errors.Is(err, errors.ErrUnsupported):
			w.prealloc = false // this platform or filesystem: plain appends
		case err != nil:
			f.Close()
			return fmt.Errorf("durable: preallocate segment: %w", err)
		default:
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("durable: fsync: %w", err)
			}
		}
	}
	w.f, w.size, w.segStart = f, size, start
	return nil
}

// Append writes payloads to the log as consecutive records, in one
// write, and returns the sequence number of the last. It does not sync:
// under SyncAlways the records are durable once Commit(seq) has returned
// nil, and a caller must not acknowledge them before that. A log whose
// barrier has failed takes no more records: nothing written to it can be
// vouched for again.
func (w *wal) Append(payloads ...[]byte) (uint64, error) {
	for _, p := range payloads {
		if len(p) == 0 || len(p) > maxRecordLen {
			return 0, fmt.Errorf("durable: record payload %d bytes", len(p))
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return 0, errors.New("durable: WAL closed")
	}
	if err := w.failed(); err != nil {
		return 0, fmt.Errorf("durable: append after a failed barrier: %w", err)
	}
	first := w.seq.Load() + 1

	frame := w.frame[:0]
	for i, p := range payloads {
		frame = appendFrame(frame, first+uint64(i), p)
	}
	if cap(frame) <= wire.Chunk {
		w.frame = frame
	}
	if _, err := w.f.WriteAt(frame, w.size); err != nil {
		return 0, fmt.Errorf("durable: append: %w", err)
	}
	w.win.add(first, frame, w.segStart, w.size)
	w.size += int64(len(frame))
	last := first + uint64(len(payloads)) - 1
	w.seq.Store(last)
	if w.cfg.policy != SyncAlways {
		w.wakeTailers()
	}
	if m := w.metrics; m != nil {
		m.appends.Add(uint64(len(payloads)))
		m.appendBytes.Add(uint64(len(frame)))
	}

	if w.size >= w.cfg.segBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return last, nil
}

// failed returns the error of the log's failed barrier, if one failed.
func (w *wal) failed() error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.syncErr
}

// LastSeq returns the last assigned sequence number (0 before any
// append). Lock-free: snapshots use it to take their sequence cut.
func (w *wal) LastSeq() uint64 { return w.seq.Load() }

// visibleSeq is the last record a tail may read: under SyncAlways the
// durable watermark, so no follower holds a record its primary can still
// lose to a power cut, and under the other policies the last appended.
func (w *wal) visibleSeq() uint64 {
	if w.cfg.policy == SyncAlways {
		return w.durableSeq.Load()
	}
	return w.seq.Load()
}

// tailWait returns a channel that is closed once visibleSeq may have
// moved (by the next append, or under SyncAlways the next barrier) or the
// log closes. A tailer must re-check visibleSeq after obtaining the
// channel: a wake that raced the call has already closed an earlier one.
func (w *wal) tailWait() <-chan struct{} {
	w.nmu.Lock()
	defer w.nmu.Unlock()
	if w.closed.Load() {
		return closedChan
	}
	if w.notify == nil {
		w.notify = make(chan struct{})
	}
	return w.notify
}

// wakeTailers releases every tailWait channel.
func (w *wal) wakeTailers() {
	w.nmu.Lock()
	defer w.nmu.Unlock()
	if w.notify != nil {
		close(w.notify)
		w.notify = nil
	}
}

// isClosed reports whether Close has run.
func (w *wal) isClosed() bool { return w.closed.Load() }

// Commit is the durability barrier: under SyncAlways it returns once
// every record with sequence number <= seq is on disk, and under the
// other policies (whose contract is bounded loss) it is a no-op.
func (w *wal) Commit(seq uint64) error {
	if w.cfg.policy != SyncAlways {
		return nil
	}
	return w.syncTo(seq)
}

// Sync makes every record appended so far durable, whatever the policy.
func (w *wal) Sync() error { return w.syncTo(w.seq.Load()) }

// syncTo is group commit. A caller whose records are not yet durable
// waits for the fsync in flight, if there is one; the first to find none
// becomes the leader and runs one fsync for everything written by then —
// its own records and those of every committer that queued up meanwhile.
// N concurrent committers therefore share at most two fsyncs: the one in
// flight when they arrived and the one that covers them all.
//
// A failed fsync is sticky: the kernel reports a writeback error once and
// marks the pages clean, so a retry that "succeeds" proves nothing about
// the records the failed one covered.
func (w *wal) syncTo(seq uint64) error {
	w.cmu.Lock()
	for w.synced < seq && w.syncErr == nil && w.syncing {
		w.ccond.Wait()
	}
	if w.synced >= seq { // even on a poisoned log: durable before it failed
		w.cmu.Unlock()
		return nil
	}
	if err := w.syncErr; err != nil {
		w.cmu.Unlock()
		return err
	}
	w.syncing = true
	w.cmu.Unlock()

	// Holding the token keeps rotation and Close off w.f. Every record
	// published before this load is fully written, so the fsync below
	// covers it.
	target := w.seq.Load()
	return w.releaseSync(target, w.syncActive())
}

// syncActive runs the barrier's flush on the active segment and records
// how long it took. The caller holds the sync token.
func (w *wal) syncActive() error {
	start := time.Now()
	if err := w.syncFile(w.f); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	if w.metrics != nil {
		w.metrics.fsyncSecs.Observe(time.Since(start).Seconds())
	}
	return nil
}

// acquireSync takes the sync token, waiting out a barrier in flight, and
// returns how far the log is durable.
func (w *wal) acquireSync() (synced uint64) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for w.syncing {
		w.ccond.Wait()
	}
	w.syncing = true
	return w.synced
}

// releaseSync hands the token back and wakes the waiters. The holder made
// every record <= synced durable, or failed with err and thereby poisoned
// the log; either way the log's standing error is returned.
func (w *wal) releaseSync(synced uint64, err error) error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	w.syncing = false
	if w.syncErr == nil {
		w.syncErr = err
	}
	if w.syncErr == nil && synced > w.synced {
		w.synced = synced
		w.durableSeq.Store(synced)
		if w.cfg.policy == SyncAlways {
			w.wakeTailers()
		}
	}
	w.ccond.Broadcast()
	return w.syncErr
}

func (w *wal) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.cfg.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			_ = w.Sync()
		}
	}
}

// rotateLocked seals the current segment and starts the next one. The
// old segment's cut to its logical size is on disk before the new file
// exists, so no crash leaves a preallocated tail in a sealed segment.
func (w *wal) rotateLocked() error {
	synced := w.acquireSync()
	last := w.seq.Load() // mu is held: nothing is appended meanwhile
	start := time.Now()
	err := w.sealActive()
	if err == nil && synced < last && w.metrics != nil {
		// The seal was also the barrier of the records that filled the
		// segment: their Commit will find them durable.
		w.metrics.fsyncSecs.Observe(time.Since(start).Seconds())
	}
	if err == nil {
		err = w.openSegment(last+1, 0)
	}
	if err == nil {
		// A failed directory sync poisons the log like a failed segment
		// fsync: records in the new segment must not be acked while its
		// directory entry may still be lost.
		err = w.syncDir(w.dir)
	}
	if err := w.releaseSync(last, err); err != nil {
		return fmt.Errorf("durable: rotate: %w", err)
	}
	if w.metrics != nil {
		w.metrics.rotations.Inc()
	}
	return nil
}

// Rotate seals the current segment if it holds any records, so a
// subsequent CompactBefore can remove it once a snapshot covers it.
func (w *wal) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() || w.size == 0 {
		return nil
	}
	return w.rotateLocked()
}

// CompactBefore deletes sealed segments whose records are all covered by
// a snapshot at seq (i.e. every record in them has sequence <= seq).
// The active segment is never removed.
func (w *wal) CompactBefore(seq uint64) (removed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	starts, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	for i, start := range starts {
		if start == w.segStart {
			break // the active segment and anything after it stays
		}
		// The records of segment i end where segment i+1 begins.
		var lastRec uint64
		if i+1 < len(starts) {
			lastRec = starts[i+1] - 1
		} else {
			lastRec = w.seq.Load()
		}
		if lastRec > seq {
			break
		}
		if err := os.Remove(filepath.Join(w.dir, segName(start))); err != nil {
			return removed, fmt.Errorf("durable: compact: %w", err)
		}
		removed++
	}
	if removed > 0 {
		err = w.syncDir(w.dir)
	}
	return removed, err
}

// Close seals and closes the active segment and stops the sync loop.
// Every record appended before Close is durable when it returns nil.
func (w *wal) Close() error {
	w.mu.Lock()
	if w.closed.Load() {
		w.mu.Unlock()
		return nil
	}
	w.closed.Store(true)
	w.wakeTailers()
	w.acquireSync()
	last := w.seq.Load()
	err := w.releaseSync(last, w.sealActive())
	stop, done := w.stop, w.done
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// SyncDir fsyncs a directory so creations, renames and removals inside
// it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}
