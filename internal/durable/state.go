package durable

import (
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
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

// legacyNonceSlack is added once to the nonce high-water mark of a data
// directory that holds no nonce lease, one written before leases. Its
// log made each SessionOpen durable before the challenge left, but a
// torn tail could still lose the records of the last in-flight
// handshakes; reissuing one of those nonces would reproduce the same
// address map and make a sniffed digest replayable. The first handshake
// after it journals a lease, and from then on recovery resumes at the
// lease's ceiling instead.
const legacyNonceSlack = 1 << 12

// State is the durable root of the CA's mutable state: an image store,
// a registration authority and a session table whose every mutation is
// journaled to a write-ahead log before it is applied, and which are
// rebuilt by replaying WAL-over-snapshot on Open.
//
// State implements core.Journal; Open attaches it to the three stores
// together with its commit barrier (SetJournal, SetCommit) and to the
// session table's nonce lease (SetLease), so using them through their
// normal APIs (ImageStore.Put, RA.Update, SessionTable.Open, ...) is what
// makes them durable. Wire them into a
// core.CA via core.NewCA(state.Images(), ..., state.RA(),
// core.CAConfig{Sessions: state.Sessions()}).
type State struct {
	opts   Options
	wal    *wal
	images *core.ImageStore
	ra     *core.RA
	sess   *core.SessionTable
	rec    RecoveryStats
	// leased reports whether recovery met a nonce lease (set only while
	// Open replays).
	leased bool

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
	if opts.Shards <= 0 {
		opts.Shards = core.DefaultShards
	}
	s := &State{opts: opts}
	if err := s.newStores(); err != nil {
		return nil, err
	}
	from, bad, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	s.wal, s.rec, err = openWAL(opts.Dir, walConfig{
		policy:   opts.Sync,
		interval: opts.SyncInterval,
		segBytes: opts.SegmentBytes,
	}, from, s.applyPayload)
	if err != nil {
		return nil, err
	}
	s.rec.SnapshotSeq, s.rec.BadSnapshots = from, bad

	// Replay resumed the nonce at the highest lease ceiling: no nonce
	// issued before the crash lies above it. A directory without a lease
	// gets the older rule once (see legacyNonceSlack).
	if !s.leased {
		s.sess.BumpNonce(s.sess.Nonce() + legacyNonceSlack)
	}

	// Replay is done: journal from here on. The barrier and the lease are
	// wired beside the journal, not through it, so a wrapper installed
	// with SetJournal in place of s keeps them.
	s.images.SetJournal(s)
	s.ra.SetJournal(s)
	s.sess.SetJournal(s)
	s.images.SetCommit(s.Commit)
	s.ra.SetCommit(s.Commit)
	s.sess.SetCommit(s.Commit)
	s.sess.SetLease(s.lease)

	s.register(opts.Metrics)
	return s, nil
}

// newStores gives the State empty stores.
func (s *State) newStores() error {
	images, err := core.NewImageStoreShards(s.opts.MasterKey, s.opts.Shards)
	if err != nil {
		return err
	}
	s.images, s.ra, s.sess = images, core.NewRAShards(s.opts.Shards), core.NewSessionTableShards(s.opts.Shards)
	return nil
}

// register wires the subsystem's observability into reg (nil = off).
func (s *State) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.wal.metrics = &walMetrics{
		appends:     reg.Counter("durable.wal_appends"),
		appendBytes: reg.Counter("durable.wal_append_bytes"),
		rotations:   reg.Counter("durable.wal_rotations"),
		fsyncSecs:   reg.Histogram("durable.fsync_seconds", obs.DefLatencyBuckets),
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
	s.leased = s.leased || rec.Op == OpNonceLease
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
	case OpNonceLease:
		s.sess.BumpNonce(rec.Lease)
	}
}

// LastSeq returns the sequence number of the last journaled record.
func (s *State) LastSeq() uint64 { return s.wal.LastSeq() }

// TailFrom opens a read-only iterator over the journal yielding every
// record with sequence number > after (blocking for records not yet
// appended, and under SyncAlways for records not yet durable). It fails
// with ErrTruncated when record after+1 has been compacted away or after
// is past the last record — the subscriber must catch up from a
// full-state transfer instead. Replication streams records through this;
// it is also handy for debugging a live data directory.
func (s *State) TailFrom(after uint64) (*Tail, error) {
	return s.wal.TailFrom(after)
}

// Commit is the durability barrier: under SyncAlways it returns once
// every record journaled before the call is on disk (one fsync shared
// with every concurrent caller it covers); under the other policies it
// is a no-op. The stores call it on their own after each mutation; Ingest
// leaves it to its caller.
func (s *State) Commit() error { return s.wal.Commit(s.wal.LastSeq()) }

// Ingest journals replicated record payloads into this State's own WAL,
// in one write, and applies them to the in-memory stores in order,
// returning the local sequence number of the last. Every payload is
// validated before anything is written. Followers re-sequence the
// primary's records through this: every op is an idempotent
// overwrite/delete, so re-delivery after a reconnect converges instead
// of corrupting. Ingest takes no barrier: the caller must Commit before
// it acknowledges what it ingested.
func (s *State) Ingest(payloads ...[]byte) (uint64, error) {
	recs := make([]*Record, len(payloads))
	for i, p := range payloads {
		rec, err := DecodeRecord(p)
		if err != nil {
			return 0, err
		}
		recs[i] = rec
	}
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	seq, err := s.wal.Append(payloads...)
	if err != nil {
		return 0, err
	}
	if s.ingestAppended != nil {
		s.ingestAppended()
	}
	for _, rec := range recs {
		s.applyRecord(rec)
	}
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

// lease is the session table's nonce lease: it journals a lease up to
// upTo and makes the log durable through it, whatever the sync policy,
// before the table issues a nonce under the new ceiling.
func (s *State) lease(upTo uint64) error {
	if err := s.append(&Record{Op: OpNonceLease, Lease: upTo}); err != nil {
		return err
	}
	return s.wal.Sync()
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

// Records returns the state's sequence cut, its challenge-nonce ceiling
// and the records that rebuild it: the nonce lease up to that ceiling,
// then one put per image, RA key, RA certificate and open session of
// every client filter accepts (nil accepts all). A snapshot, an
// enrolment file and a follower's catch-up transfer are each this run of
// records.
//
// Every record <= cut is applied when the cut is taken: the stores append
// and apply under one shard lock, Ingest under ingestMu. The iterator
// copies a lock shard only when it reaches it and encodes nothing under
// the lock, so what it yields is at or ahead of the cut; every op being
// an idempotent overwrite or delete, replaying the log past the cut over
// it converges. The ceiling is read after the cut and covers every lease
// at or below it, so compacting the log through the cut loses none.
func (s *State) Records(filter func(core.ClientID) bool) (cut, nonce uint64, records iter.Seq[*Record]) {
	s.ingestMu.Lock()
	cut = s.wal.LastSeq()
	s.ingestMu.Unlock()
	nonce = s.sess.NonceCeiling()
	return cut, nonce, func(yield func(*Record) bool) {
		if !yield(&Record{Op: OpNonceLease, Lease: nonce}) {
			return
		}
		emit := func(rec *Record) bool { return (filter != nil && !filter(rec.ID)) || yield(rec) }
		for id, blob := range s.images.Sealed() {
			if !emit(&Record{Op: OpImagePut, ID: id, Blob: blob}) {
				return
			}
		}
		for id, key := range s.ra.Keys() {
			if !emit(&Record{Op: OpRAKey, ID: id, Blob: key}) {
				return
			}
		}
		for id, cert := range s.ra.Certificates() {
			if !emit(&Record{Op: OpRACert, ID: id, Cert: cert}) {
				return
			}
		}
		for id, ch := range s.sess.Challenges() {
			if !emit(&Record{Op: OpSessionOpen, ID: id, Challenge: &ch}) {
				return
			}
		}
	}
}

// Snapshot writes a point-in-time snapshot — the run of Records at a
// cut — and compacts the WAL segments it covers. Mutations continue
// while it is written (see Records).
func (s *State) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()

	cut, nonce, records := s.Records(nil)
	size, err := writeStateFile(filepath.Join(s.opts.Dir, snapName(cut)), cut, nonce, records)
	if err != nil {
		return err
	}
	// Superseded snapshots are garbage once the new one is durable.
	seqs, _ := listSnapshots(s.opts.Dir)
	for _, seq := range seqs {
		if seq < cut {
			_ = os.Remove(filepath.Join(s.opts.Dir, snapName(seq)))
		}
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
