package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"sync"
	"time"

	"rbcsalted/internal/cryptoalg"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

// ClientID identifies an enrolled client device.
type ClientID string

// DefaultSaltRotation is the shared salt applied to a recovered seed
// before key generation: a fixed bit rotation, so there is no computable
// correspondence between the hashed seed and the key-generation input
// (paper §3, step 7).
const DefaultSaltRotation = 113

// DefaultTimeLimit is the authentication threshold T = 20 s used
// throughout the paper.
const DefaultTimeLimit = 20 * time.Second

// DefaultSessionTTL is the default lifetime of an issued challenge:
// comfortably above the 20 s search threshold plus the paper's 0.90 s
// communication constant, but short enough that an abandoned handshake's
// nonce stops being answerable quickly.
const DefaultSessionTTL = 30 * time.Second

// SaltSeed applies the shared salt to a recovered seed.
func SaltSeed(seed u256.Uint256, rotation int) u256.Uint256 {
	return seed.RotateLeft(rotation)
}

// Challenge is the CA's half of the handshake: which PUF cells the client
// must read for this session, and how to digest them. IssuedAt bounds
// the session's life: past CAConfig.SessionTTL the nonce is no longer
// answerable (it would otherwise stay replayable indefinitely).
type Challenge struct {
	Nonce      uint64
	AddressMap []int
	Alg        HashAlg
	IssuedAt   time.Time
}

// RA is the registration authority: the registry of authenticated client
// public keys (and their CA certificates) that the CA updates after each
// successful RBC search and relying parties query. Entries are striped
// across lock shards, and every mutation runs through the attached
// Journal (if any) before it lands in the maps.
type RA struct {
	journal Journal
	commit  commitFunc
	shards  []raShard
}

type raShard struct {
	mu    sync.RWMutex
	keys  map[ClientID][]byte
	certs map[ClientID]*Certificate
}

// NewRA returns an empty registry with the default shard count.
func NewRA() *RA {
	return NewRAShards(DefaultShards)
}

// NewRAShards returns an empty registry with an explicit lock-stripe
// count (1 reproduces the single-mutex baseline).
func NewRAShards(shards int) *RA {
	if shards < 1 {
		shards = 1
	}
	ra := &RA{shards: make([]raShard, shards)}
	for i := range ra.shards {
		ra.shards[i].keys = make(map[ClientID][]byte)
		ra.shards[i].certs = make(map[ClientID]*Certificate)
	}
	return ra
}

// SetJournal attaches a mutation journal (nil detaches). Attach during
// assembly, before the registry is shared.
func (ra *RA) SetJournal(j Journal) { ra.journal = j }

// SetCommit attaches the journal's durability barrier (see Journal):
// Update, UpdateCertificate and Delete run it after releasing the shard
// lock, before returning. Attach during assembly, like SetJournal.
func (ra *RA) SetCommit(commit func() error) { ra.commit = commit }

func (ra *RA) shard(id ClientID) *raShard {
	return &ra.shards[shardIndex(id, len(ra.shards))]
}

// Update records the client's current public key, durably.
func (ra *RA) Update(id ClientID, publicKey []byte) error {
	if err := ra.update(id, publicKey); err != nil {
		return err
	}
	return ra.commit.run()
}

// update journals and applies a key without the barrier: CA.Authenticate
// takes one for the whole result.
func (ra *RA) update(id ClientID, publicKey []byte) error {
	sh := ra.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ra.journal != nil {
		if err := ra.journal.RAKeyUpdate(id, publicKey); err != nil {
			return fmt.Errorf("core: journal RA key for %q: %w", id, err)
		}
	}
	sh.keys[id] = append([]byte(nil), publicKey...)
	return nil
}

// UpdateCertificate records the client's current certificate, durably.
func (ra *RA) UpdateCertificate(id ClientID, cert *Certificate) error {
	if err := ra.updateCertificate(id, cert); err != nil {
		return err
	}
	return ra.commit.run()
}

// updateCertificate is UpdateCertificate without the barrier (see update).
func (ra *RA) updateCertificate(id ClientID, cert *Certificate) error {
	sh := ra.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ra.journal != nil {
		if err := ra.journal.RACertUpdate(id, cert); err != nil {
			return fmt.Errorf("core: journal RA certificate for %q: %w", id, err)
		}
	}
	copied := *cert
	sh.certs[id] = &copied
	return nil
}

// Delete removes a client's key and certificate (deprovisioning).
// Deleting an unregistered client is a no-op and is not journaled.
func (ra *RA) Delete(id ClientID) error {
	sh := ra.shard(id)
	sh.mu.Lock()
	_, hasKey := sh.keys[id]
	_, hasCert := sh.certs[id]
	if !hasKey && !hasCert {
		sh.mu.Unlock()
		return nil
	}
	if ra.journal != nil {
		if err := ra.journal.RADelete(id); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("core: journal RA delete for %q: %w", id, err)
		}
	}
	delete(sh.keys, id)
	delete(sh.certs, id)
	sh.mu.Unlock()
	return ra.commit.run()
}

// SetKey applies a public key without journaling (the replay path).
func (ra *RA) SetKey(id ClientID, publicKey []byte) {
	sh := ra.shard(id)
	sh.mu.Lock()
	sh.keys[id] = append([]byte(nil), publicKey...)
	sh.mu.Unlock()
}

// SetCertificate applies a certificate without journaling (the replay
// path).
func (ra *RA) SetCertificate(id ClientID, cert *Certificate) {
	sh := ra.shard(id)
	sh.mu.Lock()
	copied := *cert
	sh.certs[id] = &copied
	sh.mu.Unlock()
}

// Forget removes a client without journaling (the replay path of an
// RADelete record).
func (ra *RA) Forget(id ClientID) {
	sh := ra.shard(id)
	sh.mu.Lock()
	delete(sh.keys, id)
	delete(sh.certs, id)
	sh.mu.Unlock()
}

// Certificate returns the registered certificate for a client, if any.
func (ra *RA) Certificate(id ClientID) (*Certificate, bool) {
	sh := ra.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.certs[id]
	if !ok {
		return nil, false
	}
	copied := *c
	return &copied, true
}

// PublicKey returns the registered key for a client, if any.
func (ra *RA) PublicKey(id ClientID) ([]byte, bool) {
	sh := ra.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	k, ok := sh.keys[id]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), k...), true
}

// Keys iterates every registered public key, one lock shard at a time
// (see rangeShards).
func (ra *RA) Keys() iter.Seq2[ClientID, []byte] {
	return rangeShards(len(ra.shards), func(i int) map[ClientID][]byte {
		sh := &ra.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return maps.Clone(sh.keys)
	})
}

// Certificates iterates every registered certificate, one lock shard at
// a time (see rangeShards).
func (ra *RA) Certificates() iter.Seq2[ClientID, *Certificate] {
	return rangeShards(len(ra.shards), func(i int) map[ClientID]*Certificate {
		sh := &ra.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return maps.Clone(sh.certs)
	})
}

// Len returns the number of clients with a registered key or
// certificate.
func (ra *RA) Len() int {
	n := 0
	for i := range ra.shards {
		sh := &ra.shards[i]
		sh.mu.RLock()
		n += len(sh.keys)
		for id := range sh.certs {
			if _, ok := sh.keys[id]; !ok {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// CAConfig collects the CA's tunable policy.
type CAConfig struct {
	// Alg is the search hash (default SHA3).
	Alg HashAlg
	// MaxDistance bounds the search (default 5, the paper's nominal PUF
	// error budget).
	MaxDistance int
	// Method is the seed iterator (default GrayCode, the fastest).
	Method iterseq.Method
	// TimeLimit is the authentication threshold T (default 20 s).
	TimeLimit time.Duration
	// TAPKIThreshold masks enrollment cells whose observed instability is
	// at or above this value (default 0.2).
	TAPKIThreshold float64
	// SaltRotation is the shared salt (default DefaultSaltRotation).
	SaltRotation int
	// SessionTTL bounds the life of an issued challenge (default
	// DefaultSessionTTL). Past it the nonce is rejected with
	// ErrNoSession and the session evicted, so an abandoned handshake
	// does not leave a replayable nonce behind.
	SessionTTL time.Duration
	// InlineDepth is the distance-progressive fast path's budget: shells
	// d <= InlineDepth run inline on the caller's goroutine with the host
	// BatchMatcher, bypassing the backend (and any scheduler queue in
	// front of it) entirely; only deeper searches escalate, with
	// Task.MinDistance set past the covered shells. Zero selects
	// DefaultInlineDepth (1); InlineDisabled (-1) sends every search to
	// the backend; at most MaxInlineDepth.
	InlineDepth int
	// Sessions, when non-nil, is the session table the CA uses instead
	// of creating its own — the injection point for a durable table
	// (internal/durable) whose opens and closes are journaled.
	Sessions *SessionTable
	// Trace, when non-nil, is attached to every search Task the CA
	// submits, so the scheduler and backend emit per-search trace events
	// for served authentications (see internal/obs). Nil disables
	// tracing.
	Trace obs.TraceSink
}

// Validate reports configuration errors that would otherwise only
// surface mid-search: a negative search bound, an unknown seed iterator,
// or a negative time limit. Zero values are valid — they select the
// documented defaults. NewCA calls Validate, so misconfiguration fails
// at construction.
func (c CAConfig) Validate() error {
	if c.MaxDistance < 0 {
		return fmt.Errorf("%w: negative MaxDistance %d", ErrBadConfig, c.MaxDistance)
	}
	if c.MaxDistance > 10 {
		return fmt.Errorf("%w: MaxDistance %d outside supported range [0,10]", ErrBadConfig, c.MaxDistance)
	}
	if !c.Method.Valid() {
		return fmt.Errorf("%w: unknown iteration method %d", ErrBadConfig, int(c.Method))
	}
	if c.TimeLimit < 0 {
		return fmt.Errorf("%w: negative TimeLimit %s (use zero for the default threshold)", ErrBadConfig, c.TimeLimit)
	}
	if c.TAPKIThreshold < 0 || c.TAPKIThreshold > 1 {
		return fmt.Errorf("%w: TAPKIThreshold %v outside [0,1]", ErrBadConfig, c.TAPKIThreshold)
	}
	if c.SaltRotation < 0 || c.SaltRotation > 255 {
		return fmt.Errorf("%w: SaltRotation %d outside [0,255]", ErrBadConfig, c.SaltRotation)
	}
	if c.SessionTTL < 0 {
		return fmt.Errorf("%w: negative SessionTTL %s (use zero for the default)", ErrBadConfig, c.SessionTTL)
	}
	if c.InlineDepth > MaxInlineDepth {
		return fmt.Errorf("%w: InlineDepth %d exceeds maximum %d", ErrBadConfig, c.InlineDepth, MaxInlineDepth)
	}
	return nil
}

func (c CAConfig) withDefaults() CAConfig {
	if c.MaxDistance == 0 {
		c.MaxDistance = 5
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = DefaultTimeLimit
	}
	if c.TAPKIThreshold == 0 {
		c.TAPKIThreshold = 0.2
	}
	if c.SaltRotation == 0 {
		c.SaltRotation = DefaultSaltRotation
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	if c.InlineDepth == 0 {
		c.InlineDepth = DefaultInlineDepth
	} else if c.InlineDepth < 0 {
		c.InlineDepth = InlineDisabled
	}
	return c
}

// CA is the certificate authority: it holds the encrypted PUF-image
// database, runs the RBC-SALTED search on its backend, and updates the RA
// with the public key generated from the recovered, salted seed.
type CA struct {
	cfg      CAConfig
	store    *ImageStore
	backend  Backend
	keygen   cryptoalg.KeyGenerator
	ra       *RA
	sessions *SessionTable

	mu     sync.Mutex
	issuer *Issuer
}

// NewCA assembles a certificate authority.
func NewCA(store *ImageStore, backend Backend, keygen cryptoalg.KeyGenerator, ra *RA, cfg CAConfig) (*CA, error) {
	if store == nil || backend == nil || keygen == nil || ra == nil {
		return nil, errors.New("core: CA requires store, backend, keygen and RA")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	sessions := cfg.Sessions
	if sessions == nil {
		sessions = NewSessionTable()
	}
	sessions.SetTTL(cfg.SessionTTL)
	return &CA{
		cfg:      cfg,
		store:    store,
		backend:  backend,
		keygen:   keygen,
		ra:       ra,
		sessions: sessions,
	}, nil
}

// UseIssuer makes the CA issue signed certificates for authenticated
// clients (see Certificate). Without an issuer, the CA still registers
// raw public keys with the RA.
func (ca *CA) UseIssuer(issuer *Issuer) {
	ca.mu.Lock()
	ca.issuer = issuer
	ca.mu.Unlock()
}

// Enroll stores a client's PUF image, captured in the secure enrollment
// facility.
func (ca *CA) Enroll(id ClientID, im *puf.Image) error {
	return ca.store.Put(id, im)
}

// BeginHandshake opens an authentication session: the CA picks a fresh
// PUF address map from the client's TAPKI-stable cells and sends it as the
// challenge (Figure 1, "handshake"). The session expires after the
// configured SessionTTL.
//
// The image is unsealed here and nowhere else in a normal authentication:
// the seed S_init the challenge selects is computed while the image is
// open and kept in memory beside the session (see seedCache).
//
// On a durable table the challenge leaves with its nonce below a durable
// lease ceiling. Its session is not durable: it lives in the session
// table's memory until it is answered or expires.
func (ca *CA) BeginHandshake(id ClientID) (Challenge, error) {
	var ch Challenge
	err := ca.store.withImage(id, func(im *puf.Image, gen imageGen) error {
		nonce, err := ca.sessions.NextNonce()
		if err != nil {
			return err
		}
		addr, err := im.SelectAddressMap(ca.cfg.TAPKIThreshold, nonce)
		if err != nil {
			return err
		}
		base, err := im.Seed(addr)
		if err != nil {
			return err
		}
		ch = Challenge{Nonce: nonce, AddressMap: addr, Alg: ca.cfg.Alg}
		ca.sessions.open(id, ch, seedCache{base: base, gen: gen, ok: true})
		return nil
	})
	if err != nil {
		return Challenge{}, fmt.Errorf("core: handshake: %w", err)
	}
	return ch, nil
}

// Sessions exposes the CA's session table (for inspection and tests).
func (ca *CA) Sessions() *SessionTable { return ca.sessions }

// Deprovision removes a client entirely: its open session, its RA key
// and certificate, and its enrolled PUF image. With a durable journal
// attached, the RA and image removals are journaled, so a deprovisioned
// client stays deprovisioned across restarts.
func (ca *CA) Deprovision(id ClientID) error {
	ca.sessions.Drop(id)
	if err := ca.ra.Delete(id); err != nil {
		return fmt.Errorf("core: deprovision %q: %w", id, err)
	}
	if err := ca.store.Delete(id); err != nil {
		return fmt.Errorf("core: deprovision %q: %w", id, err)
	}
	return nil
}

// AuthResult is the outcome of an authentication attempt.
type AuthResult struct {
	// Authenticated reports whether the RBC search recovered the client's
	// seed within the time threshold.
	Authenticated bool
	// TimedOut reports that the search hit the threshold T; per the
	// protocol the CA would issue a new challenge and retry.
	TimedOut bool
	// PublicKey is the client's fresh public key, generated from the
	// salted seed, when authenticated.
	PublicKey []byte
	// Certificate is the CA-signed binding of ClientID to PublicKey,
	// present when the CA has an issuer configured.
	Certificate *Certificate
	// Search carries the full search telemetry.
	Search Result
}

// Authenticate runs the RBC-SALTED search for the digest the client sent
// (Figure 1 steps 1-9). On success the recovered seed is salted, the
// public key generated, and the RA updated.
//
// Serving is distance-progressive: shells d <= InlineDepth run inline on
// the calling goroutine with the host BatchMatcher (microseconds — a
// healthy PUF authenticates here almost always), and only a search that
// must go deeper escalates to the configured backend with
// Task.MinDistance set past the covered shells. The request's QoS class
// and deadline ride on the escalated Task, so a scheduler backend can
// order and shed by them.
//
// ctx bounds the search: cancellation or deadline expiry propagates into
// the backend's shell loops and surfaces as ctx.Err(). The challenge is
// strictly single-use: once the (Client, Nonce) pair has been presented,
// the session is consumed on every path — success, failure, policy error
// or cancellation — so a failed attempt can never be replayed. A session
// older than the configured SessionTTL is treated as absent.
//
// With a durable journal attached, the RA update (and certificate) of a
// success is journaled as it happens and made durable by one barrier
// taken before any outcome of a consumed challenge — result or error — is
// returned; a refusal journals nothing of its own for that barrier to
// sync. A failed barrier turns the outcome into an error. The session
// itself is consumed in memory only: nothing of it is durable.
func (ca *CA) Authenticate(ctx context.Context, req AuthRequest) (AuthResult, error) {
	// The challenge is consumed here: any outcome below — including the
	// early error returns — has already burnt it.
	sess, ok := ca.sessions.take(req.Client, req.Nonce)
	if !ok {
		return AuthResult{}, fmt.Errorf("%w for %q with nonce %d", ErrNoSession, req.Client, req.Nonce)
	}
	out, err := ca.authenticate(ctx, req, sess)
	if cerr := ca.ra.commit.run(); cerr != nil {
		return AuthResult{}, cerr
	}
	return out, err
}

// authenticate is Authenticate after the challenge has been taken; it
// journals through the stores' barrier-free paths and leaves the barrier
// to its caller.
func (ca *CA) authenticate(ctx context.Context, req AuthRequest, sess session) (AuthResult, error) {
	if !req.Class.Valid() {
		return AuthResult{}, fmt.Errorf("%w: unknown QoS class %d", ErrBadConfig, uint8(req.Class))
	}
	if req.M1.Alg != ca.cfg.Alg {
		return AuthResult{}, fmt.Errorf("%w: digest %v, CA policy %v", ErrAlgMismatch, req.M1.Alg, ca.cfg.Alg)
	}
	base, err := ca.baseSeed(req.Client, sess)
	if err != nil {
		return AuthResult{}, err
	}

	task := Task{
		Base:        base,
		Target:      req.M1,
		MaxDistance: ca.cfg.MaxDistance,
		Method:      ca.cfg.Method,
		TimeLimit:   ca.cfg.TimeLimit,
		Class:       req.Class,
		Deadline:    req.Deadline,
		Trace:       ca.cfg.Trace,
	}
	res, err := ca.search(ctx, task)
	if err != nil {
		return AuthResult{Search: res}, err
	}

	out := AuthResult{Search: res, TimedOut: res.TimedOut}
	if res.Found && !res.TimedOut {
		salted := SaltSeed(res.Seed, ca.cfg.SaltRotation).Bytes()
		out.PublicKey = ca.keygen.PublicKey(salted)
		out.Authenticated = true
		if err := ca.ra.update(req.Client, out.PublicKey); err != nil {
			return AuthResult{}, err
		}
		ca.mu.Lock()
		issuer := ca.issuer
		ca.mu.Unlock()
		if issuer != nil {
			cert, certErr := issuer.Issue(req.Client, ca.keygen.Name(), out.PublicKey)
			if certErr != nil {
				return AuthResult{}, certErr
			}
			out.Certificate = cert
			if err := ca.ra.updateCertificate(req.Client, cert); err != nil {
				return AuthResult{}, err
			}
		}
	}
	return out, nil
}

// baseSeed returns the seed S_init a session's challenge selects from
// the client's enrolled image. The handshake's cached seed is used only
// while the store still holds the very blob it was read from; a session
// without one (opened through SessionTable.Open), a client re-enrolled
// since the handshake, or one whose image is gone, unseals the current
// image — so the answer is always the one the store would give now.
func (ca *CA) baseSeed(id ClientID, sess session) (u256.Uint256, error) {
	if sess.seed.ok {
		if gen, ok := ca.store.generation(id); ok && gen == sess.seed.gen {
			return sess.seed.base, nil
		}
	}
	im, err := ca.store.Get(id)
	if err != nil {
		return u256.Zero, err
	}
	return im.Seed(sess.ch.AddressMap)
}

// search runs the distance-progressive pipeline for one task: the inline
// host shells first, then — only if needed — the backend continues past
// them (Continue), with the inline telemetry folded into the Result.
func (ca *CA) search(ctx context.Context, task Task) (Result, error) {
	depth := ca.cfg.InlineDepth
	if depth < 0 {
		return ca.backend.Search(ctx, task)
	}
	if depth > task.MaxDistance {
		depth = task.MaxDistance
	}
	inline, err := SearchInline(ctx, task, depth)
	if err != nil {
		return inline, err
	}
	if inline.Found || inline.TimedOut || depth >= task.MaxDistance {
		// Resolved without ever touching the backend or its queue.
		obs.Emit(task.Trace, obs.TraceEvent{
			Kind:    obs.KindInline,
			Search:  task.TraceID,
			Backend: InlineName,
			Depth:   depth,
			N:       inline.SeedsCovered,
			Dur:     time.Duration(inline.WallSeconds * float64(time.Second)),
		})
		return inline, nil
	}
	return Continue(ctx, task, inline, ca.backend.Search)
}

// Client is the device-side participant: it reads its PUF at the
// challenged address and responds with the digest M_1.
type Client struct {
	ID     ClientID
	Device *puf.Device
	// NoiseBits deliberately flips this many additional seed bits before
	// hashing (paper §4.1 noise injection; §5 suggests it as a security
	// knob). Zero means respond with the raw PUF read.
	NoiseBits int
	// noiseRng drives deliberate noise injection; lazily seeded from the
	// challenge nonce for reproducibility.
	noiseSeed uint64
}

// Respond reads the PUF at the challenged addresses and returns the
// digest of the (optionally noise-injected) seed.
func (c *Client) Respond(ch Challenge) (Digest, error) {
	seed, err := c.ReadSeed(ch)
	if err != nil {
		return Digest{}, err
	}
	return HashSeed(ch.Alg, seed), nil
}

// ReadSeed returns the raw (noise-injected) seed the client would hash.
// It is exposed so simulations can use it as a search oracle.
func (c *Client) ReadSeed(ch Challenge) (u256.Uint256, error) {
	if c.Device == nil {
		return u256.Zero, errors.New("core: client has no PUF device")
	}
	seed, err := c.Device.ReadSeed(ch.AddressMap)
	if err != nil {
		return u256.Zero, err
	}
	if c.NoiseBits > 0 {
		state := ch.Nonce ^ c.noiseSeed ^ 0x6A09E667F3BCC908
		var used [puf.SeedBits]bool
		for flipped := 0; flipped < c.NoiseBits; {
			state = splitmix64(state)
			bit := int(state % puf.SeedBits)
			if used[bit] {
				continue
			}
			used[bit] = true
			flipped++
			seed = seed.FlipBit(bit)
		}
	}
	return seed, nil
}

// splitmix64 is the standard 64-bit mixing step, used for cheap
// deterministic noise placement.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
