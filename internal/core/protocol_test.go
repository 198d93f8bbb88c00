package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

// echoBackend is a trivial in-process search engine for protocol tests:
// it searches d <= 2 for real by brute force over single and double flips.
type echoBackend struct{ alg HashAlg }

func (e *echoBackend) Name() string { return "echo" }

func (e *echoBackend) Search(ctx context.Context, task Task) (Result, error) {
	var res Result
	try := func(s u256.Uint256, d int) bool {
		res.HashesExecuted++
		res.SeedsCovered++
		if HashSeed(e.alg, s).Equal(task.Target) {
			res.Found = true
			res.Seed = s
			res.Distance = d
			return true
		}
		return false
	}
	if try(task.Base, 0) {
		return res, nil
	}
	for d := 1; d <= task.MaxDistance && d <= 2; d++ {
		switch d {
		case 1:
			for i := 0; i < 256; i++ {
				if try(task.Base.FlipBit(i), 1) {
					return res, nil
				}
			}
		case 2:
			for i := 0; i < 256; i++ {
				for j := i + 1; j < 256; j++ {
					if try(task.Base.FlipBit(i).FlipBit(j), 2) {
						return res, nil
					}
				}
			}
		}
	}
	return res, nil
}

func newTestCA(t *testing.T, alg HashAlg) (*CA, *RA, *ImageStore) {
	t.Helper()
	store, err := NewImageStore([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ra := NewRA()
	ca, err := NewCA(store, &echoBackend{alg: alg}, &aeskg.Generator{}, ra, CAConfig{
		Alg:         alg,
		MaxDistance: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ca, ra, store
}

func enrollTestClient(t *testing.T, ca *CA, id ClientID, seed uint64, profile puf.Profile) *Client {
	t.Helper()
	dev, err := puf.NewDevice(seed, 1024, profile)
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 31)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll(id, im); err != nil {
		t.Fatal(err)
	}
	return &Client{ID: id, Device: dev}
}

func TestFullProtocolAuthenticates(t *testing.T) {
	// Low-noise PUF so the true distance stays within the test backend's
	// d <= 2 reach.
	profile := puf.Profile{BaseError: 0.5 / 256.0}
	ca, ra, _ := newTestCA(t, SHA3)
	client := enrollTestClient(t, ca, "alice", 77, profile)

	ch, err := ca.BeginHandshake("alice")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := client.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: m1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Authenticated {
		t.Fatalf("authentication failed: %+v", res.Search)
	}
	if len(res.PublicKey) == 0 {
		t.Fatal("no public key generated")
	}
	// The RA must have been updated with exactly this key.
	raKey, ok := ra.PublicKey("alice")
	if !ok || string(raKey) != string(res.PublicKey) {
		t.Error("RA not updated with the session key")
	}
	// The public key must come from the SALTED seed, not the raw seed.
	rawKey := (&aeskg.Generator{}).PublicKey(res.Search.Seed.Bytes())
	if string(rawKey) == string(res.PublicKey) {
		t.Error("public key generated from unsalted seed")
	}
}

func TestAuthenticateRejectsImpostor(t *testing.T) {
	profile := puf.Profile{BaseError: 0.5 / 256.0}
	ca, _, _ := newTestCA(t, SHA3)
	enrollTestClient(t, ca, "alice", 77, profile)
	impostor := enrollTestClient(t, ca, "mallory", 78, profile)

	ch, err := ca.BeginHandshake("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Mallory answers Alice's challenge with her own PUF.
	m1, err := impostor.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: m1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Authenticated {
		t.Error("impostor authenticated")
	}
}

func TestChallengeIsSingleUse(t *testing.T) {
	profile := puf.Profile{BaseError: 0.5 / 256.0}
	ca, _, _ := newTestCA(t, SHA3)
	client := enrollTestClient(t, ca, "alice", 79, profile)
	ch, _ := ca.BeginHandshake("alice")
	m1, _ := client.Respond(ch)
	if _, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: m1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: m1}); err == nil {
		t.Error("challenge replay accepted")
	}
}

func TestAuthenticateErrors(t *testing.T) {
	ca, _, _ := newTestCA(t, SHA3)
	if _, err := ca.BeginHandshake("ghost"); err == nil {
		t.Error("handshake for unknown client succeeded")
	}
	profile := puf.Profile{BaseError: 0.5 / 256.0}
	client := enrollTestClient(t, ca, "alice", 80, profile)
	ch, _ := ca.BeginHandshake("alice")
	if _, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce + 1, M1: Digest{}}); err == nil {
		t.Error("wrong nonce accepted")
	}
	// Wrong digest algorithm.
	seed, _ := client.ReadSeed(ch)
	wrongAlg := HashSeed(SHA1, seed)
	if _, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: wrongAlg}); err == nil {
		t.Error("wrong digest algorithm accepted")
	}
}

// TestChallengeConsumedOnErrorPaths is the regression test for the
// challenge leak: an Authenticate attempt that fails AFTER the session
// lookup (here: digest algorithm mismatch) must still burn the
// challenge, so the same nonce cannot be replayed with a corrected
// digest.
func TestChallengeConsumedOnErrorPaths(t *testing.T) {
	profile := puf.Profile{BaseError: 0.5 / 256.0}
	ca, _, _ := newTestCA(t, SHA3)
	client := enrollTestClient(t, ca, "alice", 81, profile)

	ch, err := ca.BeginHandshake("alice")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := client.ReadSeed(ch)
	if err != nil {
		t.Fatal(err)
	}
	// First attempt fails policy: wrong digest algorithm.
	if _, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: HashSeed(SHA1, seed)}); !errors.Is(err, ErrAlgMismatch) {
		t.Fatalf("expected ErrAlgMismatch, got %v", err)
	}
	// Second attempt fixes the digest — but the challenge must be gone.
	if _, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: HashSeed(SHA3, seed)}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("expected ErrNoSession after failed attempt, got %v", err)
	}
}

// TestWrongNonceKeepsSession: a probe with the wrong nonce never
// matches the open session, so it must NOT consume it — otherwise any
// party that can reach the CA could void sessions it does not own.
func TestWrongNonceKeepsSession(t *testing.T) {
	profile := puf.Profile{BaseError: 0.5 / 256.0}
	ca, _, _ := newTestCA(t, SHA3)
	client := enrollTestClient(t, ca, "alice", 82, profile)

	ch, err := ca.BeginHandshake("alice")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := client.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce + 1, M1: m1}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("expected ErrNoSession for wrong nonce, got %v", err)
	}
	res, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: m1})
	if err != nil {
		t.Fatalf("session consumed by wrong-nonce probe: %v", err)
	}
	if !res.Authenticated {
		t.Error("genuine attempt after wrong-nonce probe failed")
	}
}

func TestBeginHandshakeUnknownClient(t *testing.T) {
	ca, _, _ := newTestCA(t, SHA3)
	if _, err := ca.BeginHandshake("ghost"); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("expected ErrUnknownClient, got %v", err)
	}
}

func TestCAConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  CAConfig
		ok   bool
	}{
		{"zero is valid", CAConfig{}, true},
		{"paper nominal", CAConfig{Alg: SHA3, MaxDistance: 5, TimeLimit: 20 * time.Second}, true},
		{"negative MaxDistance", CAConfig{MaxDistance: -1}, false},
		{"MaxDistance too large", CAConfig{MaxDistance: 11}, false},
		{"unknown method", CAConfig{Method: iterseq.Method(99)}, false},
		{"negative TimeLimit", CAConfig{TimeLimit: -time.Second}, false},
		{"zero TimeLimit is default", CAConfig{TimeLimit: 0}, true},
		{"TAPKI threshold above 1", CAConfig{TAPKIThreshold: 1.5}, false},
		{"negative TAPKI threshold", CAConfig{TAPKIThreshold: -0.1}, false},
		{"salt rotation out of range", CAConfig{SaltRotation: 256}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: invalid config accepted", tc.name)
			} else if !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s: error %v does not wrap ErrBadConfig", tc.name, err)
			}
		}
	}
	// NewCA runs Validate, so misconfiguration fails at construction.
	store, _ := NewImageStore([32]byte{})
	if _, err := NewCA(store, &echoBackend{}, &aeskg.Generator{}, NewRA(), CAConfig{MaxDistance: -3}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NewCA accepted invalid config (err=%v)", err)
	}
}

func TestNewCAValidation(t *testing.T) {
	store, _ := NewImageStore([32]byte{})
	if _, err := NewCA(nil, &echoBackend{}, &aeskg.Generator{}, NewRA(), CAConfig{}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewCA(store, nil, &aeskg.Generator{}, NewRA(), CAConfig{}); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestCAConfigDefaults(t *testing.T) {
	cfg := CAConfig{}.withDefaults()
	if cfg.MaxDistance != 5 || cfg.TimeLimit != 20*time.Second ||
		cfg.TAPKIThreshold != 0.2 || cfg.SaltRotation != DefaultSaltRotation {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestClientNoiseInjection(t *testing.T) {
	profile := puf.Profile{} // noiseless device isolates deliberate noise
	dev, err := puf.NewDevice(5, 512, profile)
	if err != nil {
		t.Fatal(err)
	}
	im, _ := puf.Enroll(dev, 5)
	addr, _ := im.SelectAddressMap(0.5, 1)
	ch := Challenge{Nonce: 9, AddressMap: addr, Alg: SHA3}

	clean := &Client{ID: "c", Device: dev}
	noisy := &Client{ID: "c", Device: dev, NoiseBits: 5}
	cleanSeed, err := clean.ReadSeed(ch)
	if err != nil {
		t.Fatal(err)
	}
	noisySeed, err := noisy.ReadSeed(ch)
	if err != nil {
		t.Fatal(err)
	}
	if d := cleanSeed.HammingDistance(noisySeed); d != 5 {
		t.Errorf("noise injection produced distance %d, want 5", d)
	}
	// Determinism: same nonce, same noise placement.
	again, _ := noisy.ReadSeed(ch)
	if !again.Equal(noisySeed) {
		t.Error("noise injection not deterministic per nonce")
	}
}

func TestClientWithoutDevice(t *testing.T) {
	c := &Client{ID: "x"}
	if _, err := c.Respond(Challenge{}); err == nil ||
		!strings.Contains(err.Error(), "no PUF device") {
		t.Errorf("expected device error, got %v", err)
	}
}

func TestRA(t *testing.T) {
	ra := NewRA()
	if _, ok := ra.PublicKey("a"); ok {
		t.Error("empty RA returned a key")
	}
	ra.Update("a", []byte{1, 2})
	k, ok := ra.PublicKey("a")
	if !ok || len(k) != 2 {
		t.Error("RA lost the key")
	}
	// Returned slice must be a copy.
	k[0] = 99
	k2, _ := ra.PublicKey("a")
	if k2[0] == 99 {
		t.Error("RA exposes internal storage")
	}
}
