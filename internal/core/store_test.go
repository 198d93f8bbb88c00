package core

import (
	"bytes"
	"crypto/cipher"
	"math"
	"slices"
	"testing"

	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/puf"
)

func testImage(t *testing.T) *puf.Image {
	t.Helper()
	dev, err := puf.NewDevice(31, 512, puf.DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 11)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestImageStoreRoundTrip(t *testing.T) {
	store, err := NewImageStore([32]byte{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	im := testImage(t)
	if err := store.Put("alice", im); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Values {
		if got.Values[i] != im.Values[i] || got.Instability[i] != im.Instability[i] {
			t.Fatalf("image corrupted at cell %d", i)
		}
	}
	if store.Len() != 1 {
		t.Errorf("Len = %d", store.Len())
	}
}

func TestImageStoreMissingAndDelete(t *testing.T) {
	store, _ := NewImageStore([32]byte{})
	if _, err := store.Get("nobody"); err == nil {
		t.Error("missing client returned an image")
	}
	if err := store.Put("x", nil); err == nil {
		t.Error("nil image accepted")
	}
	store.Put("x", testImage(t))
	store.Delete("x")
	if _, err := store.Get("x"); err == nil {
		t.Error("deleted client still readable")
	}
}

func TestImageStoreIsActuallyEncrypted(t *testing.T) {
	store, _ := NewImageStore([32]byte{1})
	im := testImage(t)
	store.Put("alice", im)
	blob, _ := store.blob("alice")
	if len(blob) == 0 {
		t.Fatal("no blob stored")
	}
	// The plaintext is the image's binary layout; no stretch of it — the
	// cell values least of all — may show through the sealed blob.
	plain, err := im.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off+16 <= len(plain); off += 16 {
		if containsSubslice(blob, plain[off:off+16]) {
			t.Fatalf("stored blob leaks plaintext bytes %d..%d", off, off+16)
		}
	}
}

func TestImageStoreBlobTamperDetected(t *testing.T) {
	store, _ := NewImageStore([32]byte{1})
	store.Put("alice", testImage(t))
	blob, _ := store.blob("alice")
	blob = bytes.Clone(blob)
	blob[len(blob)-1] ^= 0xFF
	store.PutSealed("alice", blob)
	if _, err := store.Get("alice"); err == nil {
		t.Error("tampered blob accepted")
	}
	// Truncated blob shorter than a nonce.
	store.PutSealed("bob", []byte{1, 2})
	if _, err := store.Get("bob"); err == nil {
		t.Error("truncated blob accepted")
	}
}

func TestImageStoreKeyBinding(t *testing.T) {
	// A blob sealed for one client id must not open under another
	// (additional authenticated data binds identity).
	store, _ := NewImageStore([32]byte{1})
	store.Put("alice", testImage(t))
	blob, _ := store.blob("alice")
	store.PutSealed("eve", blob)
	if _, err := store.Get("eve"); err == nil {
		t.Error("blob replayed under a different identity")
	}
}

func containsSubslice(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if string(haystack[i:i+len(needle)]) == string(needle) {
			return true
		}
	}
	return false
}

// recordingAEAD keeps the plaintext the last Open returned, aliasing the
// buffer the store opened into.
type recordingAEAD struct {
	cipher.AEAD
	last []byte
}

func (r *recordingAEAD) Open(dst, nonce, ciphertext, aad []byte) ([]byte, error) {
	out, err := r.AEAD.Open(dst, nonce, ciphertext, aad)
	r.last = out
	return out, err
}

// TestWithImageClearsPooledBuffers: the image withImage hands out is the
// one Get decodes, and once withImage (or the handshake built on it)
// returns, neither its plaintext nor its cells hold a byte of it - the
// pooled image's slices are kept here, against withImage's contract, only
// to look at them afterwards. Images of different cell counts alternate,
// so the pooled image is reused across sizes.
func TestWithImageClearsPooledBuffers(t *testing.T) {
	store, err := NewImageStore([32]byte{5})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingAEAD{AEAD: store.aead}
	store.aead = rec
	sizes := map[ClientID]int{"big": 4099, "small": 1024, "odd": 257}
	for id, cells := range sizes {
		dev, err := puf.NewDevice(uint64(cells), cells, puf.DefaultProfile)
		if err != nil {
			t.Fatal(err)
		}
		im, err := puf.Enroll(dev, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(id, im); err != nil {
			t.Fatal(err)
		}
	}
	zero := func(what string, b []byte) {
		t.Helper()
		if i := slices.IndexFunc(b, func(c byte) bool { return c != 0 }); i >= 0 {
			t.Fatalf("%s: byte %d of %d still set after the scope closed", what, i, len(b))
		}
	}
	for range 3 {
		for _, id := range []ClientID{"big", "small", "odd", "small", "big"} {
			want, err := store.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			var values []bool
			var inst []float64
			err = store.withImage(id, func(im *puf.Image, gen imageGen) error {
				if !slices.Equal(im.Values, want.Values) || !slices.EqualFunc(im.Instability, want.Instability,
					func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Fatalf("%s: pooled image differs from Get's", id)
				}
				values, inst = im.Values[:cap(im.Values)], im.Instability[:cap(im.Instability)]
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			zero("plaintext", rec.last[:cap(rec.last)])
			if slices.Contains(values, true) || slices.ContainsFunc(inst, func(f float64) bool { return f != 0 }) {
				t.Fatalf("%s: pooled image still holds cells after the scope closed", id)
			}
		}
	}

	ca, err := NewCA(store, &echoBackend{alg: SHA3}, &aeskg.Generator{}, NewRA(), CAConfig{MaxDistance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.BeginHandshake("small"); err != nil {
		t.Fatal(err)
	}
	zero("handshake plaintext", rec.last[:cap(rec.last)])
}
