package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/durable"
	"rbcsalted/internal/wire"
)

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// State is the local durable state replicated records are ingested
	// into.
	State *durable.State
	// ID names this follower in the primary's liveness table.
	ID string
	// MetaPath is where the fencing epoch and cursor persist (one file
	// per followed primary).
	MetaPath string
	// AckInterval paces cursor acks (and meta persistence) back to the
	// primary (default 500 ms; tests shorten it).
	AckInterval time.Duration
	// DialTimeout bounds each connection attempt (default 5 s).
	DialTimeout time.Duration
	// ReadTimeout bounds silence from the primary before the follower
	// declares it dead and redials (default 10 s — several primary
	// heartbeats).
	ReadTimeout time.Duration
}

// Follower subscribes to a primary's WAL stream and ingests it into
// the local durable state. Safe for use from one Run loop plus
// concurrent Cursor/Epoch/Promote calls.
type Follower struct {
	cfg FollowerConfig

	mu       sync.Mutex
	epoch    uint64
	cursor   uint64
	promoted bool
	conn     net.Conn

	// persistMu orders the meta file's writers — the run loop's ack
	// ticker and final save, and Promote — and saved is the highest epoch
	// and cursor any of them has written. rename is os.Rename outside
	// tests.
	persistMu sync.Mutex
	saved     Meta
	rename    func(oldpath, newpath string) error
}

// NewFollower builds a Follower, loading its persisted meta.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.State == nil {
		return nil, errors.New("replica: FollowerConfig.State required")
	}
	if cfg.MetaPath == "" {
		return nil, errors.New("replica: FollowerConfig.MetaPath required")
	}
	if cfg.AckInterval <= 0 {
		cfg.AckInterval = 500 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	meta, err := LoadMeta(cfg.MetaPath)
	if err != nil {
		return nil, err
	}
	return &Follower{cfg: cfg, epoch: meta.Epoch, cursor: meta.Cursor, saved: meta, rename: os.Rename}, nil
}

// Cursor returns the primary sequence number applied through.
func (f *Follower) Cursor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor
}

// Epoch returns the follower's fencing epoch.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Promote turns this follower into the replication group's new
// authority: the fencing epoch advances (persisted before returning)
// and the challenge-nonce high-water mark — the highest lease ceiling
// replicated — jumps by PromoteNonceSlack so nonces the dead primary
// leased but never replicated cannot be reissued. Any active Run loop
// stops with ErrPromoted. The caller owns what happens next — typically
// re-serving the follower's State as a Primary at the returned epoch.
func (f *Follower) Promote() (uint64, error) {
	f.mu.Lock()
	if f.promoted {
		epoch := f.epoch
		f.mu.Unlock()
		return epoch, nil
	}
	f.promoted = true
	f.epoch++
	epoch := f.epoch
	cursor := f.cursor
	conn := f.conn
	f.mu.Unlock()

	if conn != nil {
		conn.Close()
	}
	sess := f.cfg.State.Sessions()
	sess.BumpNonce(sess.Nonce() + PromoteNonceSlack)
	if err := f.persist(epoch, cursor); err != nil {
		return epoch, err
	}
	return epoch, nil
}

// persist saves the follower's meta behind a commit barrier. Records are
// ingested without one, so this is where a SyncAlways follower pays its
// fsync — once per persisted cursor, not once per record — and what keeps
// a persisted or acked cursor from running ahead of the durable log.
// cursor must have been read before the call: the barrier covers every
// record ingested by then.
//
// Callers read their (epoch, cursor) under f.mu and arrive here in any
// order, so a pair can be stale by the time it is written: the run loop's
// from before a promotion, landing after Promote's. Both fields only
// grow — the cursor but for a rebase, which resets what was saved — and
// every cursor that reaches this point is durable, so the file gets the
// highest of each seen since and never goes backwards otherwise.
func (f *Follower) persist(epoch, cursor uint64) error {
	f.persistMu.Lock()
	defer f.persistMu.Unlock()
	return f.persistLocked(epoch, cursor)
}

// checkpoint persists the current epoch and cursor and returns the
// cursor. The pair is read under persistMu, so no rebase lands between
// the read and the write.
func (f *Follower) checkpoint() (uint64, error) {
	f.persistMu.Lock()
	defer f.persistMu.Unlock()
	f.mu.Lock()
	cursor, epoch := f.cursor, f.epoch
	f.mu.Unlock()
	return cursor, f.persistLocked(epoch, cursor)
}

// persistLocked is persist with persistMu held.
func (f *Follower) persistLocked(epoch, cursor uint64) error {
	if err := f.cfg.State.Commit(); err != nil {
		return fmt.Errorf("replica: commit: %w", err)
	}
	m := Meta{Epoch: max(epoch, f.saved.Epoch), Cursor: max(cursor, f.saved.Cursor)}
	if err := saveMeta(f.cfg.MetaPath, m, f.rename); err != nil {
		return err
	}
	f.saved = m
	return nil
}

// rebase sets the cursor to a full-state transfer's cut. That is a step
// back when this follower was ahead of a primary that lost a tail it had
// shipped: the transfer replaced what the follower held past the cut,
// and the persisted cursor must come back with it, or a restart would
// skip the records the primary writes anew at those sequence numbers.
func (f *Follower) rebase(cut uint64) {
	f.persistMu.Lock()
	defer f.persistMu.Unlock()
	f.mu.Lock()
	f.cursor = cut
	f.mu.Unlock()
	f.saved.Cursor = min(f.saved.Cursor, cut)
}

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// RunUntil follows the primary at addr, redialing with a fixed delay
// after connection loss — a restarted primary is rejoined from the
// persisted cursor without operator action — until ctx is cancelled,
// the follower is promoted, or the primary turns out to be fenced or
// stale (those are permanent for this topology, so the loop reports
// instead of hammering).
func (f *Follower) RunUntil(ctx context.Context, addr string, delay time.Duration) error {
	if delay <= 0 {
		delay = time.Second
	}
	for {
		err := f.Run(ctx, addr)
		switch {
		case errors.Is(err, ErrPromoted), errors.Is(err, ErrStalePrimary), errors.Is(err, ErrFenced):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// Run follows the primary at addr over one connection: subscribe,
// catch up, tail live records until the connection drops, ctx is
// cancelled, or the follower is promoted.
func (f *Follower) Run(ctx context.Context, addr string) error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return ErrPromoted
	}
	epoch, cursor := f.epoch, f.cursor
	f.mu.Unlock()

	d := net.Dialer{Timeout: f.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return ErrPromoted
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()

	// Tear the connection down when ctx dies so blocking reads fail.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	done := make(chan struct{})
	defer close(done)

	sub, err := (&subscribeMsg{
		FollowerID: f.cfg.ID,
		Epoch:      epoch,
		Cursor:     cursor,
	}).append(nil)
	if err != nil {
		return err
	}
	if _, err := conn.Write(sub); err != nil {
		return err
	}
	r := bufio.NewReaderSize(conn, streamBuffer)
	conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
	kind, body, err := wire.Read(r, maxReplicaFrame)
	if err != nil {
		return fmt.Errorf("replica: expected accept: %w", err)
	}
	if kind != kindAccept {
		return fmt.Errorf("replica: expected accept, got message kind %d", kind)
	}
	acc, err := decodeAccept(body)
	if err != nil {
		return fmt.Errorf("replica: undecodable accept (primary not at protocol version %d?): %w", protocolVersion, err)
	}
	if acc.Err != "" {
		if acc.Epoch < epoch {
			return fmt.Errorf("%w: refused: %s", ErrFenced, acc.Err)
		}
		return fmt.Errorf("replica: primary refused: %s", acc.Err)
	}
	if acc.Epoch < epoch {
		// The primary predates our promotion history: refusing its
		// stream is what prevents a deposed primary from rewriting a
		// promoted follower.
		return fmt.Errorf("%w: primary epoch %d, follower epoch %d", ErrStalePrimary, acc.Epoch, epoch)
	}
	if acc.Epoch > epoch {
		// The group moved on while we were away; adopt its epoch.
		f.mu.Lock()
		f.epoch = acc.Epoch
		epoch = acc.Epoch
		cursor = f.cursor
		f.mu.Unlock()
		if err := f.persist(epoch, cursor); err != nil {
			return err
		}
	}

	// Ack loop: heartbeat the applied cursor back and persist it, each
	// time behind one barrier for the whole batch ingested since the last.
	ackErr := make(chan error, 1)
	go func() {
		t := time.NewTicker(f.cfg.AckInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
			}
			cur, err := f.checkpoint()
			if err != nil {
				ackErr <- err
				return
			}
			if _, err := conn.Write(appendSeq(nil, kindAck, cur)); err != nil {
				return // reader will surface the connection error
			}
		}
	}()

	err = f.consume(conn, r)
	select {
	case aerr := <-ackErr:
		err = aerr
	default:
	}
	// Persist the final position; re-delivery from an older cursor is
	// harmless, so a failed save only costs replay.
	f.mu.Lock()
	cur, ep, promoted := f.cursor, f.epoch, f.promoted
	f.mu.Unlock()
	_ = f.persist(ep, cur)
	if promoted {
		return ErrPromoted
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// consume applies the primary's stream, reading it through r in chunks.
// Record messages are ingested in batches: the complete record messages
// already buffered when one arrives go into the local WAL in one write,
// are applied in order, and advance the cursor to the last. Gathering
// them never waits for bytes that have not arrived. Catch-up records
// (Seq 0) are also noted for reconciliation, by their op and ID.
func (f *Follower) consume(conn net.Conn, r *bufio.Reader) error {
	catchup := catchupSet{}
	var batch recordBatch
	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
		if _, err := r.Peek(wire.HeaderSize); err == nil {
			buf, _ := r.Peek(r.Buffered())
			n, err := batch.split(buf)
			if err != nil {
				return err
			}
			if n > 0 {
				if err := f.ingest(&batch, catchup); err != nil {
					return err
				}
				r.Discard(n)
				continue
			}
		}
		// Not a record, or one larger than what is buffered.
		kind, body, err := wire.Read(r, maxReplicaFrame)
		if err != nil {
			return err
		}
		switch kind {
		case kindRecord:
			seq, payload, err := decodeRecordMsg(body)
			if err != nil {
				return err
			}
			batch.seqs, batch.payloads = append(batch.seqs[:0], seq), append(batch.payloads[:0], payload)
			if err := f.ingest(&batch, catchup); err != nil {
				return err
			}
		case kindWatermark:
			seq, err := decodeSeq(body)
			if err != nil {
				return err
			}
			f.advance(seq)
		case kindCatchupDone:
			m, err := decodeCatchupDone(body)
			if err != nil {
				return err
			}
			if err := f.reconcile(catchup); err != nil {
				return err
			}
			clear(catchup)
			f.cfg.State.Sessions().BumpNonce(m.Nonce)
			f.rebase(m.Cut)
		default:
			return fmt.Errorf("replica: unexpected message kind %d mid-stream", kind)
		}
	}
}

// recordBatch is a run of record messages, their payloads aliasing the
// buffer they were read from.
type recordBatch struct {
	seqs     []uint64
	payloads [][]byte
}

// split fills b with the whole record messages at the front of buf and
// returns how many bytes they span. It stops at the first message that
// is not a record or is not all in buf; wire.Read takes that one.
func (b *recordBatch) split(buf []byte) (int, error) {
	b.seqs, b.payloads = b.seqs[:0], b.payloads[:0]
	n := 0
	for {
		kind, body, size := wire.Next(buf[n:], maxReplicaFrame)
		if size == 0 || kind != kindRecord {
			return n, nil
		}
		seq, payload, err := decodeRecordMsg(body)
		if err != nil {
			return 0, err
		}
		b.seqs, b.payloads = append(b.seqs, seq), append(b.payloads, payload)
		n += size
	}
}

// ingest journals and applies a batch, notes its catch-up records, and
// advances the cursor past its live ones.
func (f *Follower) ingest(b *recordBatch, catchup catchupSet) error {
	var last uint64
	for i, seq := range b.seqs {
		if seq == 0 {
			if err := catchup.note(b.payloads[i]); err != nil {
				return fmt.Errorf("replica: bad record from primary: %w", err)
			}
		}
		last = max(last, seq)
	}
	if _, err := f.cfg.State.Ingest(b.payloads...); err != nil {
		return fmt.Errorf("replica: ingest: %w", err)
	}
	if last > 0 {
		f.advance(last)
	}
	return nil
}

// advance moves the cursor forward (never backward: watermarks and
// records can interleave across a snapshot fallback).
func (f *Follower) advance(seq uint64) {
	f.mu.Lock()
	if seq > f.cursor {
		f.cursor = seq
	}
	f.mu.Unlock()
}

// catchupSet holds the entries a full-state transfer mentioned, so
// reconciliation can delete everything else — entries the primary
// deleted in the compacted gap the follower never saw.
type catchupSet map[catchupEntry]bool

// catchupEntry names one entry by the op that puts it and its client. An
// RA key and an RA certificate are one entry: RA entries are kept while
// either was mentioned, and a stale certificate under a live key is left
// for the next re-key to overwrite (certificates carry their own expiry).
type catchupEntry struct {
	op durable.Op
	id core.ClientID
}

func entryOf(op durable.Op, id core.ClientID) catchupEntry {
	if op == durable.OpRACert {
		op = durable.OpRAKey
	}
	return catchupEntry{op, id}
}

func (c catchupSet) note(payload []byte) error {
	op, id, err := durable.RecordID(payload)
	if err != nil {
		return err
	}
	c[entryOf(op, core.ClientID(id))] = true
	return nil
}

// reconcile deletes local entries that the full-state transfer did not
// mention. It reads them as the run of records a snapshot would hold,
// and deletes through the journaling store APIs, so deletions land in
// the follower's own WAL and survive its restarts.
func (f *Follower) reconcile(mentioned catchupSet) error {
	st := f.cfg.State
	_, _, records := st.Records()
	for rec := range records {
		if mentioned[entryOf(rec.Op, rec.ID)] {
			continue
		}
		var err error
		switch rec.Op {
		case durable.OpImagePut:
			err = st.Images().Delete(rec.ID)
		case durable.OpRAKey, durable.OpRACert:
			err = st.RA().Delete(rec.ID)
		}
		if err != nil {
			return fmt.Errorf("replica: reconcile %s %q: %w", rec.Op, rec.ID, err)
		}
	}
	return nil
}
