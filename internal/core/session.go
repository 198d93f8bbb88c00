package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rbcsalted/internal/u256"
)

// SessionTable holds the CA's open handshake sessions: for each client,
// the challenge it must answer next. The table is striped across lock
// shards like ImageStore and RA, issues the monotonically increasing
// challenge nonces and enforces the session TTL.
//
// A session lives only in the table's memory, from its handshake until
// it is answered, dropped or expires. It is never journaled, snapshotted
// or replicated: one connection carries one handshake and its answer
// (netproto.Server), so a session outlives its connection only until the
// TTL sweeps it, and a restart or a promotion simply finds none open.
//
// The nonce is what must be durable. With a lease attached (SetLease), a
// nonce is issued only below a durable ceiling: the table leases
// NonceLeaseBlock nonces at a time, so a restart that resumes at the
// highest lease never reissues a nonce whatever the log lost.
type SessionTable struct {
	nonce atomic.Uint64
	// lease makes a ceiling durable; nil (a memory-only table) issues
	// without one. ceiling is the highest nonce the last lease covers;
	// leaseMu serializes leases and the readers of the ceiling.
	lease   func(upTo uint64) error
	leaseMu sync.Mutex
	ceiling atomic.Uint64
	// ttl bounds a session's life from IssuedAt; see SetTTL.
	ttl atomic.Int64
	// now is injectable for TTL tests.
	now    func() time.Time
	shards []sessionShard
}

type sessionShard struct {
	mu   sync.Mutex
	open map[ClientID]session
	// lastSweep amortizes expiry eviction: each shard is swept at most
	// once per TTL, on the open path.
	lastSweep time.Time
}

// session is one open handshake: the challenge and, beside it, what the
// CA worked out while it had the client's image open.
type session struct {
	ch   Challenge
	seed seedCache
}

// seedCache is the server-side seed S_init the handshake computed for a
// challenge, tagged with the sealed image it was read from, so answering
// the challenge need not unseal the image a second time. It is as secret
// as the image cells it packs, and like its session it lives only in the
// table's memory, for at most the session's TTL. A session opened through
// Open rather than a handshake has none, and CA.Authenticate re-derives
// the seed from the store.
type seedCache struct {
	base u256.Uint256
	gen  imageGen
	ok   bool
}

// NewSessionTable returns an empty table with the default shard count
// and no TTL (the CA sets one from its config).
func NewSessionTable() *SessionTable {
	return NewSessionTableShards(DefaultShards)
}

// NewSessionTableShards returns an empty table with an explicit
// lock-stripe count.
func NewSessionTableShards(shards int) *SessionTable {
	if shards < 1 {
		shards = 1
	}
	t := &SessionTable{
		now:    time.Now,
		shards: make([]sessionShard, shards),
	}
	for i := range t.shards {
		t.shards[i].open = make(map[ClientID]session)
	}
	return t
}

// SetJournal does nothing: sessions are not journaled (see SessionTable).
// It remains for callers that attach one journal to every store, as
// benchmark/node.go does.
func (t *SessionTable) SetJournal(Journal) {}

// NonceLeaseBlock is how many nonces one lease covers: a durable table
// pays one barrier of its own per this many handshakes.
const NonceLeaseBlock = 1 << 10

// SetLease attaches the nonce lease: lease(upTo) must return only once
// the ceiling upTo is durable, so that recovery resumes at or above it.
// lease(0) makes nothing durable; it fails when the lease can no longer
// vouch for the ceilings it made durable before (its log's barrier
// failed). NextNonce asks that for every nonce it issues under a held
// ceiling, so a failed log refuses every handshake, not only the one
// that needs a new lease. Attach during assembly, before the table is
// shared.
func (t *SessionTable) SetLease(lease func(upTo uint64) error) { t.lease = lease }

// SetTTL sets the session lifetime. Zero or negative disables expiry.
func (t *SessionTable) SetTTL(d time.Duration) { t.ttl.Store(int64(d)) }

// TTL returns the current session lifetime.
func (t *SessionTable) TTL() time.Duration { return time.Duration(t.ttl.Load()) }

// SetClock injects a time source for tests.
func (t *SessionTable) SetClock(now func() time.Time) { t.now = now }

func (t *SessionTable) shard(id ClientID) *sessionShard {
	return &t.shards[shardIndex(id, len(t.shards))]
}

// NextNonce issues a fresh challenge nonce. With a lease attached, the
// nonce is below a durable ceiling when NextNonce returns: the call that
// passes the ceiling takes a new lease first, and fails if it cannot, and
// every other call fails if the lease can no longer vouch for the
// ceiling it holds (see SetLease).
func (t *SessionTable) NextNonce() (uint64, error) {
	n := t.nonce.Add(1)
	if t.lease == nil {
		return n, nil
	}
	if n <= t.ceiling.Load() {
		if err := t.lease(0); err != nil {
			return 0, fmt.Errorf("core: nonce lease: %w", err)
		}
		return n, nil
	}
	t.leaseMu.Lock()
	defer t.leaseMu.Unlock()
	if n <= t.ceiling.Load() {
		return n, nil // a concurrent lease covered it
	}
	upTo := n + NonceLeaseBlock
	if err := t.lease(upTo); err != nil {
		return 0, fmt.Errorf("core: nonce lease: %w", err)
	}
	t.ceiling.Store(upTo)
	return n, nil
}

// Nonce returns the nonce high-water mark: the last nonce issued, or the
// ceiling a restore resumed at.
func (t *SessionTable) Nonce() uint64 { return t.nonce.Load() }

// NonceCeiling returns the highest nonce the table may have issued or
// leased: no nonce above it has left, and none will before a lease past
// it returns. A lease in flight is waited for, so a reader that has taken
// a log position first sees the ceiling of every lease up to it.
func (t *SessionTable) NonceCeiling() uint64 {
	t.leaseMu.Lock()
	defer t.leaseMu.Unlock()
	return max(t.ceiling.Load(), t.nonce.Load())
}

// BumpNonce raises the nonce high-water mark to at least n (the restore
// path: replayed lease records, snapshots and the SessionOpen records of
// older logs carry the nonces they cover).
func (t *SessionTable) BumpNonce(n uint64) {
	for {
		cur := t.nonce.Load()
		if cur >= n || t.nonce.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (t *SessionTable) expired(ch Challenge, at time.Time) bool {
	ttl := t.TTL()
	return ttl > 0 && !ch.IssuedAt.IsZero() && at.Sub(ch.IssuedAt) > ttl
}

// Open records a new session for id, superseding any previous one. The
// challenge's IssuedAt is stamped here if unset. As a side effect the
// shard is swept for expired sessions at most once per TTL, bounding the
// table's footprint under abandoned handshakes.
func (t *SessionTable) Open(id ClientID, ch Challenge) {
	t.open(id, ch, seedCache{})
}

func (t *SessionTable) open(id ClientID, ch Challenge, seed seedCache) {
	now := t.now()
	if ch.IssuedAt.IsZero() {
		ch.IssuedAt = now
	}
	sh := t.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ttl := t.TTL()
	if ttl > 0 && now.Sub(sh.lastSweep) > ttl {
		sh.lastSweep = now
		for sid, s := range sh.open {
			if sid != id && t.expired(s.ch, now) {
				sh.closeLocked(sid)
			}
		}
	}
	sh.open[id] = session{ch: ch, seed: seed}
}

// Take consumes the open session for (id, nonce). It returns ok=false
// when there is no session, the nonce does not match, or the session has
// expired; an expired session is evicted, but a wrong-nonce probe leaves
// the stored session untouched, so third parties cannot void sessions
// they do not own. A consumed session is gone for good: nothing of it is
// durable, so no restart can reopen the nonce.
func (t *SessionTable) Take(id ClientID, nonce uint64) (Challenge, bool) {
	s, ok := t.take(id, nonce)
	return s.ch, ok
}

// take is Take returning the whole session, cached seed included.
func (t *SessionTable) take(id ClientID, nonce uint64) (session, bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.open[id]
	if !ok {
		return session{}, false
	}
	if t.expired(s.ch, t.now()) {
		sh.closeLocked(id)
		return session{}, false
	}
	if s.ch.Nonce != nonce {
		return session{}, false
	}
	sh.closeLocked(id)
	return s, true
}

// Drop closes any open session for id (deprovisioning). Dropping an
// absent session is a no-op.
func (t *SessionTable) Drop(id ClientID) {
	sh := t.shard(id)
	sh.mu.Lock()
	sh.closeLocked(id)
	sh.mu.Unlock()
}

// closeLocked removes a session; the shard lock must be held. The slot is
// overwritten before it is unlinked so the cached seed is gone from the
// table's memory whatever the map does with the slot.
func (sh *sessionShard) closeLocked(id ClientID) {
	if _, ok := sh.open[id]; ok {
		sh.open[id] = session{}
		delete(sh.open, id)
	}
}

// Len returns the number of open sessions (including not-yet-swept
// expired ones).
func (t *SessionTable) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.open)
		sh.mu.Unlock()
	}
	return n
}
