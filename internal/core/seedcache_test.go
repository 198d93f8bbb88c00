package core

import (
	"context"
	"crypto/cipher"
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/puf"
)

// countingAEAD counts the unseals a store performs.
type countingAEAD struct {
	cipher.AEAD
	opens atomic.Int64
}

func (c *countingAEAD) Open(dst, nonce, ciphertext, aad []byte) ([]byte, error) {
	c.opens.Add(1)
	return c.AEAD.Open(dst, nonce, ciphertext, aad)
}

func countOpens(store *ImageStore) *countingAEAD {
	c := &countingAEAD{AEAD: store.aead}
	store.aead = c
	return c
}

// TestImageStoreReadsParentGobBlob opens a blob sealed by the commit
// before the binary layout (testdata/image_gob_v0.sealed: key 0..31,
// client "fixture-client", device seed 20231, 1,024 cells, default
// profile, 9 enrollment reads). Such blobs sit in every older data
// directory, snapshot and follower and must stay readable.
func TestImageStoreReadsParentGobBlob(t *testing.T) {
	blob, err := os.ReadFile("testdata/image_gob_v0.sealed")
	if err != nil {
		t.Fatal(err)
	}
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	store, err := NewImageStore(key)
	if err != nil {
		t.Fatal(err)
	}
	const id = "fixture-client"
	store.PutSealed(id, blob)
	got, err := store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := puf.NewDevice(20231, 1024, puf.DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := puf.Enroll(dev, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(want.Values) || len(got.Instability) != len(want.Instability) {
		t.Fatalf("fixture decoded to %d values, %d instabilities", len(got.Values), len(got.Instability))
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] || got.Instability[i] != want.Instability[i] {
			t.Fatalf("fixture image differs at cell %d", i)
		}
	}

	// The two plaintexts are told apart by their first byte alone.
	firstByte := func(sealed []byte) byte {
		plain, err := store.aead.Open(nil, sealed[:12], sealed[12:], []byte(id))
		if err != nil || len(plain) == 0 {
			t.Fatalf("open: %d bytes, %v", len(plain), err)
		}
		return plain[0]
	}
	if b := firstByte(blob); b == puf.ImageMagic {
		t.Error("the gob fixture's plaintext starts with the binary layout's marker")
	}
	if err := store.Put(id, want); err != nil {
		t.Fatal(err)
	}
	sealed, _ := store.blob(id)
	if b := firstByte(sealed); b != puf.ImageMagic {
		t.Errorf("Put sealed a plaintext starting %#x, want the binary layout", b)
	}
}

// TestImageStoreGetSkipsGob: a blob in the binary layout decodes in a
// handful of allocations; the gob decoder alone costs over a hundred.
func TestImageStoreGetSkipsGob(t *testing.T) {
	store, _ := NewImageStore([32]byte{4})
	if err := store.Put("alice", testImage(t)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := store.Get("alice"); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("Get allocates %.0f objects, want <= 8", n)
	}
}

// authRig is a CA over zero-noise devices, so a device's response sits at
// distance 0 of its own image and far outside the ball of any other.
type authRig struct {
	ca    *CA
	store *ImageStore
	opens *countingAEAD
}

func newAuthRig(t *testing.T, sessions *SessionTable, store *ImageStore) *authRig {
	t.Helper()
	if store == nil {
		var err error
		if store, err = NewImageStore([32]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	ca, err := NewCA(store, &echoBackend{alg: SHA3}, &aeskg.Generator{}, NewRA(), CAConfig{
		MaxDistance: 1,
		Sessions:    sessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &authRig{ca: ca, store: store, opens: countOpens(store)}
}

func (r *authRig) answer(t *testing.T, cl *Client, ch Challenge) (AuthResult, error) {
	t.Helper()
	m1, err := cl.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	return r.ca.Authenticate(context.Background(), AuthRequest{Client: cl.ID, Nonce: ch.Nonce, M1: m1})
}

// TestAuthenticateUnsealsOnce: a handshake and its authentication open
// the client's image once between them; a session that reaches
// Authenticate without the handshake's seed (opened again through Open)
// costs the second unseal.
func TestAuthenticateUnsealsOnce(t *testing.T) {
	r := newAuthRig(t, nil, nil)
	alice := enrollTestClient(t, r.ca, "alice", 77, puf.Profile{})

	for _, tc := range []struct {
		name    string
		between func(Challenge)
		opens   int64
	}{
		{"cached", func(Challenge) {}, 1},
		{"reopened session", func(ch Challenge) { r.ca.Sessions().Open("alice", ch) }, 2},
	} {
		before := r.opens.opens.Load()
		ch, err := r.ca.BeginHandshake("alice")
		if err != nil {
			t.Fatal(err)
		}
		tc.between(ch)
		res, err := r.answer(t, alice, ch)
		if err != nil || !res.Authenticated {
			t.Fatalf("%s: %+v, %v", tc.name, res, err)
		}
		if got := r.opens.opens.Load() - before; got != tc.opens {
			t.Errorf("%s: %d unseals per authentication, want %d", tc.name, got, tc.opens)
		}
	}
}

// TestAuthenticateSeedFallbacks: whatever happens to the client's image
// or session between the challenge and its answer, the outcome is the one
// a CA that unseals the image at answer time would give.
func TestAuthenticateSeedFallbacks(t *testing.T) {
	reenroll := func(t *testing.T, r *authRig) *Client {
		return enrollTestClient(t, r.ca, "alice", 78, puf.Profile{})
	}
	var ch Challenge // the handshake's, for the case that reopens it
	cases := []struct {
		name string
		// between runs after the handshake; it returns the rig and device
		// that answer the challenge.
		between func(t *testing.T, r *authRig, alice *Client) (*authRig, *Client)
		authed  bool
		err     error
		opens   int64 // unseals Authenticate itself performs
	}{
		{"untouched", func(t *testing.T, r *authRig, alice *Client) (*authRig, *Client) {
			return r, alice
		}, true, nil, 0},
		{"session reopened in a new table", func(t *testing.T, r *authRig, alice *Client) (*authRig, *Client) {
			table := NewSessionTable()
			table.Open("alice", ch)
			return newAuthRig(t, table, r.store), alice
		}, true, nil, 1},
		{"re-enrolled, new device answers", func(t *testing.T, r *authRig, alice *Client) (*authRig, *Client) {
			return r, reenroll(t, r)
		}, true, nil, 1},
		{"re-enrolled, old device answers", func(t *testing.T, r *authRig, alice *Client) (*authRig, *Client) {
			reenroll(t, r)
			return r, alice
		}, false, nil, 1},
		{"same blob stored again", func(t *testing.T, r *authRig, alice *Client) (*authRig, *Client) {
			sealed, _ := r.store.blob("alice")
			r.store.PutSealed("alice", sealed)
			return r, alice
		}, true, nil, 0},
		{"deprovisioned", func(t *testing.T, r *authRig, alice *Client) (*authRig, *Client) {
			if err := r.ca.Deprovision("alice"); err != nil {
				t.Fatal(err)
			}
			return r, alice
		}, false, ErrNoSession, 0},
		{"image deleted, session left", func(t *testing.T, r *authRig, alice *Client) (*authRig, *Client) {
			if err := r.store.Delete("alice"); err != nil {
				t.Fatal(err)
			}
			return r, alice
		}, false, ErrUnknownClient, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newAuthRig(t, nil, nil)
			alice := enrollTestClient(t, r.ca, "alice", 77, puf.Profile{})
			var err error
			if ch, err = r.ca.BeginHandshake("alice"); err != nil {
				t.Fatal(err)
			}
			r, device := tc.between(t, r, alice)
			before := r.opens.opens.Load()
			res, err := r.answer(t, device, ch)
			if !errors.Is(err, tc.err) {
				t.Fatalf("error %v, want %v", err, tc.err)
			}
			if res.Authenticated != tc.authed {
				t.Errorf("authenticated = %v, want %v", res.Authenticated, tc.authed)
			}
			if got := r.opens.opens.Load() - before; got != tc.opens {
				t.Errorf("Authenticate unsealed %d images, want %d", got, tc.opens)
			}
			// Whatever the outcome, the nonce is spent.
			if _, err := r.answer(t, device, ch); !errors.Is(err, ErrNoSession) {
				t.Errorf("replayed answer: %v, want ErrNoSession", err)
			}
		})
	}
}

// seedJournal records what the session table hands its journal.
type seedJournal struct {
	Journal
	opened []Challenge
}

func (j *seedJournal) SessionOpen(id ClientID, ch Challenge) error {
	j.opened = append(j.opened, ch)
	return nil
}
func (j *seedJournal) SessionClose(ClientID) error { return nil }

// TestSeedCacheLeavesWithTheSession: the cached seed is handed to the one
// Take that consumes the session and is gone from the table with it — on
// a take, a drop and an expiry sweep alike — and a journal attached to
// the table is shown nothing of the session at all.
func TestSeedCacheLeavesWithTheSession(t *testing.T) {
	r := newAuthRig(t, nil, nil)
	enrollTestClient(t, r.ca, "alice", 77, puf.Profile{})
	tab := r.ca.Sessions()
	j := &seedJournal{}
	tab.SetJournal(j)

	ch, err := r.ca.BeginHandshake("alice")
	if err != nil {
		t.Fatal(err)
	}
	im, err := r.store.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	want, err := im.Seed(ch.AddressMap)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.opened) != 0 {
		t.Fatalf("journal saw %d opens", len(j.opened))
	}
	sh := tab.shard("alice")
	if got := sh.open["alice"].seed; !got.ok || got.base != want {
		t.Fatalf("session holds seed %+v, want %v", got, want)
	}
	sess, ok := tab.take("alice", ch.Nonce)
	if !ok || !sess.seed.ok || sess.seed.base != want {
		t.Fatalf("take returned %+v, %v", sess.seed, ok)
	}
	if _, still := sh.open["alice"]; still {
		t.Error("taken session still in the table")
	}

	// Drop and the expiry sweep go through the same close.
	if _, err := r.ca.BeginHandshake("alice"); err != nil {
		t.Fatal(err)
	}
	tab.Drop("alice")
	if s, still := sh.open["alice"]; still || s.seed.ok {
		t.Error("dropped session left its seed behind")
	}
}

// TestReadSeedNoiseAllocs: injecting noise into a response allocates
// nothing (it used to build a map per call).
func TestReadSeedNoiseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dev, err := puf.NewDevice(5, 1024, puf.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := im.SelectAddressMap(0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	clean := &Client{ID: "c", Device: dev}
	noisy := &Client{ID: "c", Device: dev, NoiseBits: 3}
	ch := Challenge{Nonce: 9, AddressMap: addr}
	base, err := clean.ReadSeed(ch)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := noisy.ReadSeed(ch)
	if err != nil {
		t.Fatal(err)
	}
	if d := seed.HammingDistance(base); d != 3 {
		t.Errorf("3 noise bits moved the seed %d bits", d)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = noisy.ReadSeed(ch) }); n != 0 {
		t.Errorf("noisy ReadSeed allocates %.0f objects", n)
	}
}
