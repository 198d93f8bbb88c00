package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/obs"
)

// Options configures a durable State.
type Options struct {
	// Dir is the data directory (created if missing). It holds WAL
	// segments (wal-*.log) and snapshots (snap-*.db).
	Dir string
	// MasterKey seals the image store (AES-256-GCM). It must match the
	// key the directory was written under; a mismatch surfaces on the
	// first image Get, exactly like ImageStore.
	MasterKey [32]byte
	// Sync selects the WAL fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncInterval paces the background fsync under SyncInterval
	// (default 100 ms).
	SyncInterval time.Duration
	// SegmentBytes caps a WAL segment before rotation (default 8 MiB).
	SegmentBytes int64
	// Shards is the lock-stripe count of the in-memory stores (default
	// core.DefaultShards).
	Shards int
	// Metrics, when non-nil, receives the subsystem's counters and
	// histograms under "durable.*".
	Metrics *obs.Registry
}

// RecoveryStats reports what Open found and repaired.
type RecoveryStats struct {
	// SnapshotSeq is the sequence cut of the snapshot recovery started
	// from (0 = no snapshot).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// BadSnapshots counts snapshot files that failed to decode and were
	// skipped in favour of an older one.
	BadSnapshots int `json:"bad_snapshots"`
	// Records is the number of WAL records replayed over the snapshot.
	Records int `json:"records"`
	// Skipped counts records at or below the snapshot cut (present in
	// not-yet-compacted segments).
	Skipped int `json:"skipped"`
	// Segments is the number of WAL segment files scanned.
	Segments int `json:"segments"`
	// TornBytes is the number of bytes truncated off a torn tail.
	TornBytes int64 `json:"torn_bytes"`
	// Truncated reports whether a torn tail was repaired.
	Truncated bool `json:"truncated"`
}

// nonceSlack is added to the recovered nonce high-water mark on every
// Open. A torn tail can lose the SessionOpen records of the last
// in-flight handshakes; reissuing one of those nonces would reproduce
// the same address map and make a sniffed digest replayable. Skipping a
// window guarantees post-recovery nonces are fresh even then.
const nonceSlack = 1 << 12

// State is the durable root of the CA's mutable state: an image store,
// a registration authority and a session table whose every mutation is
// journaled to a write-ahead log before it is applied, and which are
// rebuilt by replaying WAL-over-snapshot on Open.
//
// State implements core.Journal; Open attaches it to the three stores
// together with its commit barrier (SetJournal, SetCommit), so using
// them through their normal APIs (ImageStore.Put, RA.Update,
// SessionTable.Open, ...) is what makes them durable. Wire them into a
// core.CA via core.NewCA(state.Images(), ..., state.RA(),
// core.CAConfig{Sessions: state.Sessions()}).
type State struct {
	opts   Options
	wal    *wal
	images *core.ImageStore
	ra     *core.RA
	sess   *core.SessionTable
	rec    RecoveryStats

	snapMu sync.Mutex // one snapshot at a time

	// ingestMu makes Ingest's append+apply atomic with respect to the
	// snapshot cut: Ingest holds it shared around both, Snapshot takes it
	// exclusively only while it reads the cut, so the cut never covers a
	// record whose effect is not yet in the stores it is about to copy.
	ingestMu sync.RWMutex
	// ingestAppended, when set (tests only), runs inside Ingest between
	// the append and the apply.
	ingestAppended func()

	m struct {
		snapshots    *obs.Counter
		snapshotSecs *obs.Histogram
		snapshotSize *obs.Gauge
		compacted    *obs.Counter
	}
}

// Open opens (or initializes) the data directory and rebuilds the
// stores: newest decodable snapshot first, then every WAL record past
// the snapshot's sequence cut, truncating a torn tail if the last write
// was interrupted. The returned State is ready to serve; call Close for
// a final snapshot and a clean shutdown.
func Open(opts Options) (*State, error) {
	if opts.Dir == "" {
		return nil, errors.New("durable: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = core.DefaultShards
	}
	images, err := core.NewImageStoreShards(opts.MasterKey, shards)
	if err != nil {
		return nil, err
	}
	s := &State{
		opts:   opts,
		images: images,
		ra:     core.NewRAShards(shards),
		sess:   core.NewSessionTableShards(shards),
	}

	snap, badSnaps, err := loadSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	s.rec.BadSnapshots = badSnaps
	var from uint64
	if snap != nil {
		from = snap.Seq
		s.rec.SnapshotSeq = snap.Seq
		for id, blob := range snap.Images {
			s.images.PutSealed(id, blob)
		}
		for id, key := range snap.RAKeys {
			s.ra.SetKey(id, key)
		}
		for id, cert := range snap.RACerts {
			s.ra.SetCertificate(id, cert)
		}
		for id, ch := range snap.Sessions {
			s.sess.Restore(id, ch)
		}
		s.sess.BumpNonce(snap.Nonce)
	}

	w, walRec, err := openWAL(opts.Dir, walConfig{
		policy:   opts.Sync,
		interval: opts.SyncInterval,
		segBytes: opts.SegmentBytes,
	}, from, s.applyPayload)
	if err != nil {
		return nil, err
	}
	s.wal = w
	s.rec.Records = walRec.records
	s.rec.Skipped = walRec.skipped
	s.rec.Segments = walRec.segments
	s.rec.TornBytes = walRec.tornBytes
	s.rec.Truncated = walRec.truncated

	// Never reissue a nonce that may have been handed out before the
	// crash (see nonceSlack).
	s.sess.BumpNonce(s.sess.Nonce() + nonceSlack)

	// Replay is done: journal from here on. The barrier is wired beside
	// the journal, not through it, so a wrapper installed with SetJournal
	// in place of s keeps it.
	s.images.SetJournal(s)
	s.ra.SetJournal(s)
	s.sess.SetJournal(s)
	s.images.SetCommit(s.Commit)
	s.ra.SetCommit(s.Commit)
	s.sess.SetCommit(s.Commit)

	s.register(opts.Metrics)
	return s, nil
}

// register wires the subsystem's observability into reg (nil = off).
func (s *State) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	appends := reg.Counter("durable.wal_appends")
	appendBytes := reg.Counter("durable.wal_append_bytes")
	fsyncSecs := reg.Histogram("durable.fsync_seconds", obs.DefLatencyBuckets)
	rotations := reg.Counter("durable.wal_rotations")
	s.wal.metrics = &walMetrics{
		appends:     appends.Inc,
		appendBytes: func(n int) { appendBytes.Add(uint64(n)) },
		fsyncSecs:   fsyncSecs.Observe,
		rotations:   rotations.Inc,
	}
	s.m.snapshots = reg.Counter("durable.snapshots")
	s.m.snapshotSecs = reg.Histogram("durable.snapshot_seconds", obs.DefLatencyBuckets)
	s.m.snapshotSize = reg.Gauge("durable.snapshot_bytes")
	s.m.compacted = reg.Counter("durable.wal_segments_compacted")
	reg.Func("durable.recovery", func() any { return s.rec })
}

// Images returns the durable image store.
func (s *State) Images() *core.ImageStore { return s.images }

// RA returns the durable registration authority.
func (s *State) RA() *core.RA { return s.ra }

// Sessions returns the durable session table.
func (s *State) Sessions() *core.SessionTable { return s.sess }

// Recovery reports what Open found and repaired.
func (s *State) Recovery() RecoveryStats { return s.rec }

// applyPayload is the replay path: decode one WAL record and apply it to
// the in-memory stores through their non-journaling methods.
func (s *State) applyPayload(seq uint64, payload []byte) error {
	rec, err := DecodeRecord(payload)
	if err != nil {
		return err
	}
	s.applyRecord(rec)
	return nil
}

// applyRecord applies one decoded record through the stores'
// non-journaling methods (shared by recovery replay and Ingest).
func (s *State) applyRecord(rec *Record) {
	switch rec.Op {
	case OpImagePut:
		s.images.PutSealed(rec.ID, rec.Blob)
	case OpImageDelete:
		s.images.Drop(rec.ID)
	case OpRAKey:
		s.ra.SetKey(rec.ID, rec.Blob)
	case OpRACert:
		s.ra.SetCertificate(rec.ID, rec.Cert)
	case OpRADelete:
		s.ra.Forget(rec.ID)
	case OpSessionOpen:
		s.sess.Restore(rec.ID, *rec.Challenge)
	case OpSessionClose:
		s.sess.Forget(rec.ID)
	}
}

// LastSeq returns the sequence number of the last journaled record.
func (s *State) LastSeq() uint64 { return s.wal.LastSeq() }

// TailFrom opens a read-only iterator over the journal yielding every
// record with sequence number > after (blocking for records not yet
// appended). It fails with ErrTruncated when record after+1 has been
// compacted away — the subscriber must catch up from a full-state
// transfer instead. Replication streams records through this; it is
// also handy for debugging a live data directory.
func (s *State) TailFrom(after uint64) (*Tail, error) {
	return s.wal.TailFrom(after)
}

// Commit is the durability barrier: under SyncAlways it returns once
// every record journaled before the call is on disk (one fsync shared
// with every concurrent caller it covers); under the other policies it
// is a no-op. The stores call it on their own after each mutation; Ingest
// leaves it to its caller.
func (s *State) Commit() error { return s.wal.Commit(s.wal.LastSeq()) }

// Ingest journals one replicated record payload into this State's own
// WAL and applies it to the in-memory stores, returning the local
// sequence number. The payload is validated before anything is written.
// Followers re-sequence the primary's records through this: every op is
// an idempotent overwrite/delete, so re-delivery after a reconnect
// converges instead of corrupting. Ingest takes no barrier: the caller
// must Commit before it acknowledges what it ingested.
func (s *State) Ingest(payload []byte) (uint64, error) {
	rec, err := DecodeRecord(payload)
	if err != nil {
		return 0, err
	}
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	seq, err := s.wal.Append(payload)
	if err != nil {
		return 0, err
	}
	if s.ingestAppended != nil {
		s.ingestAppended()
	}
	s.applyRecord(rec)
	return seq, nil
}

// append encodes and journals one record.
func (s *State) append(rec *Record) error {
	payload, err := rec.Encode()
	if err != nil {
		return err
	}
	_, err = s.wal.Append(payload)
	return err
}

// The core.Journal implementation: one WAL record per mutation, written
// but not synced. These are invoked by the stores while the owning shard
// lock is held, so a client's records appear in the log in its mutation
// order; the store takes the barrier (Commit) after releasing the lock.

func (s *State) ImagePut(id core.ClientID, sealed []byte) error {
	return s.append(&Record{Op: OpImagePut, ID: id, Blob: sealed})
}

func (s *State) ImageDelete(id core.ClientID) error {
	return s.append(&Record{Op: OpImageDelete, ID: id})
}

func (s *State) RAKeyUpdate(id core.ClientID, publicKey []byte) error {
	return s.append(&Record{Op: OpRAKey, ID: id, Blob: publicKey})
}

func (s *State) RACertUpdate(id core.ClientID, cert *core.Certificate) error {
	return s.append(&Record{Op: OpRACert, ID: id, Cert: cert})
}

func (s *State) RADelete(id core.ClientID) error {
	return s.append(&Record{Op: OpRADelete, ID: id})
}

func (s *State) SessionOpen(id core.ClientID, ch core.Challenge) error {
	return s.append(&Record{Op: OpSessionOpen, ID: id, Challenge: &ch})
}

func (s *State) SessionClose(id core.ClientID) error {
	return s.append(&Record{Op: OpSessionClose, ID: id})
}

// DeleteClient deprovisions a client at the state level (no CA needed):
// open session dropped, RA entry deleted, image deleted — all journaled.
func (s *State) DeleteClient(id core.ClientID) error {
	if err := s.sess.Drop(id); err != nil {
		return err
	}
	if err := s.ra.Delete(id); err != nil {
		return err
	}
	return s.images.Delete(id)
}

// Snapshot writes a point-in-time snapshot and compacts the WAL
// segments it covers. Concurrent mutations continue during the copy:
// the sequence cut is taken first, and since every journaled op is an
// idempotent overwrite/delete, a mutation that lands in both the
// snapshot and the replayed suffix converges to the same state.
func (s *State) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()

	// The cut must be taken before the copies: any record <= cut is
	// applied by the time its shard is copied (the stores append and
	// apply under one shard lock, Ingest under ingestMu; only the barrier
	// runs outside), so the copies below can only be ahead of the cut,
	// never behind it.
	s.ingestMu.Lock()
	cut := s.wal.LastSeq()
	s.ingestMu.Unlock()
	data := &snapshotData{
		Seq:      cut,
		Nonce:    s.sess.Nonce(),
		Images:   s.images.SealedSnapshot(),
		RAKeys:   s.ra.SnapshotKeys(),
		RACerts:  s.ra.SnapshotCertificates(),
		Sessions: s.sess.Snapshot(),
	}
	size, err := writeSnapshot(s.opts.Dir, data)
	if err != nil {
		return err
	}
	if err := s.wal.Rotate(); err != nil {
		return err
	}
	removed, err := s.wal.CompactBefore(cut)
	if err != nil {
		return err
	}
	if s.m.snapshots != nil {
		s.m.snapshots.Inc()
		s.m.snapshotSecs.Observe(time.Since(start).Seconds())
		s.m.snapshotSize.Set(size)
		s.m.compacted.Add(uint64(removed))
	}
	return nil
}

// Close takes a final snapshot and closes the WAL. The State must not
// be used afterwards.
func (s *State) Close() error {
	snapErr := s.Snapshot()
	if err := s.wal.Close(); err != nil {
		return err
	}
	return snapErr
}
