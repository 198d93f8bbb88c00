package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/gob"
	"fmt"
	"iter"
	"maps"
	"sync"

	"rbcsalted/internal/puf"
)

// ImageStore is the CA's PUF-image database. Images are the protocol's
// crown jewels - whoever holds them can impersonate clients - so the
// paper keeps them "stored in an encrypted database": each image is
// serialized (puf.Image's binary layout) and sealed with AES-256-GCM
// under the store's master key before it touches the in-memory map.
//
// The map is striped across DefaultShards lock shards so the serving
// path (one Get per handshake, one tag lookup per authentication) does
// not funnel through a single RWMutex. An optional Journal receives every
// mutation before it is applied, already sealed.
type ImageStore struct {
	aead    cipher.AEAD
	journal Journal
	commit  commitFunc
	shards  []storeShard
}

type storeShard struct {
	mu    sync.RWMutex
	blobs map[ClientID][]byte
}

// NewImageStore opens a store sealed under the 32-byte master key, with
// the default shard count.
func NewImageStore(masterKey [32]byte) (*ImageStore, error) {
	return NewImageStoreShards(masterKey, DefaultShards)
}

// NewImageStoreShards opens a store with an explicit lock-stripe count.
// shards = 1 reproduces the single-mutex layout (useful as a contention
// baseline); serving deployments should keep the default.
func NewImageStoreShards(masterKey [32]byte, shards int) (*ImageStore, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: image store needs at least 1 shard, got %d", shards)
	}
	block, err := aes.NewCipher(masterKey[:])
	if err != nil {
		return nil, fmt.Errorf("core: image store: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("core: image store: %w", err)
	}
	s := &ImageStore{aead: aead, shards: make([]storeShard, shards)}
	for i := range s.shards {
		s.shards[i].blobs = make(map[ClientID][]byte)
	}
	return s, nil
}

// SetJournal attaches a mutation journal. Pass nil to detach. Not safe
// to race with mutations; attach during assembly (internal/durable does
// this after replay, before the store is shared).
func (s *ImageStore) SetJournal(j Journal) { s.journal = j }

// SetCommit attaches the journal's durability barrier (see Journal): Put
// and Delete run it after releasing the shard lock, before returning.
// Attach during assembly, like SetJournal.
func (s *ImageStore) SetCommit(commit func() error) { s.commit = commit }

func (s *ImageStore) shard(id ClientID) *storeShard {
	return &s.shards[shardIndex(id, len(s.shards))]
}

// Put seals and stores a client's enrollment image, replacing any
// previous image. The sealed blob is journaled before the map is
// updated; a journal failure leaves the store unchanged. The image is
// durable when Put returns nil.
func (s *ImageStore) Put(id ClientID, im *puf.Image) error {
	if im == nil {
		return fmt.Errorf("core: nil image for %q", id)
	}
	pp := plaintexts.Get().(*[]byte)
	plain, err := im.AppendBinary((*pp)[:0])
	*pp = plain
	if err != nil {
		putPlaintext(pp)
		return fmt.Errorf("core: encode image: %w", err)
	}
	// One exact-size blob: the nonce, then the ciphertext sealed after it.
	ns := s.aead.NonceSize()
	sealed := make([]byte, ns, ns+len(plain)+s.aead.Overhead())
	if _, err := rand.Read(sealed); err != nil {
		putPlaintext(pp)
		return fmt.Errorf("core: nonce: %w", err)
	}
	sealed = s.aead.Seal(sealed, sealed, plain, []byte(id))
	putPlaintext(pp)
	sh := s.shard(id)
	sh.mu.Lock()
	if s.journal != nil {
		if err := s.journal.ImagePut(id, sealed); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("core: journal image put for %q: %w", id, err)
		}
	}
	sh.blobs[id] = sealed
	sh.mu.Unlock()
	return s.commit.run()
}

// PutSealed stores an already-sealed blob without journaling. It is the
// replay/restore path: internal/durable uses it to apply WAL records,
// snapshots and enrolment files.
func (s *ImageStore) PutSealed(id ClientID, sealed []byte) {
	sh := s.shard(id)
	sh.mu.Lock()
	sh.blobs[id] = append([]byte(nil), sealed...)
	sh.mu.Unlock()
}

// Get opens and decodes a client's enrollment image into a new Image.
func (s *ImageStore) Get(id ClientID) (*puf.Image, error) {
	plain, _, err := s.open(id, nil)
	if err != nil {
		return nil, err
	}
	im := new(puf.Image)
	err = decodeImageInto(im, plain)
	clear(plain)
	if err != nil {
		return nil, fmt.Errorf("core: decode image: %w", err)
	}
	return im, nil
}

// withImage opens id's image into pooled buffers and runs fn on it: the
// handshake's unseal, which allocates nothing. The image and its
// plaintext are cleared and pooled again when fn returns, so fn must not
// keep im or anything aliasing its slices.
func (s *ImageStore) withImage(id ClientID, fn func(im *puf.Image, gen imageGen) error) error {
	pp := plaintexts.Get().(*[]byte)
	defer putPlaintext(pp)
	plain, gen, err := s.open(id, (*pp)[:0])
	if err != nil {
		return err
	}
	*pp = plain
	im := images.Get().(*puf.Image)
	defer putImage(im)
	if err := decodeImageInto(im, plain); err != nil {
		return fmt.Errorf("core: decode image: %w", err)
	}
	return fn(im, gen)
}

// plaintexts and images pool the buffers Put encodes into and withImage
// unseals and decodes into. Their put functions clear every byte first:
// a pooled buffer must not hold an image past the call that opened it.
var (
	plaintexts = sync.Pool{New: func() any { return new([]byte) }}
	images     = sync.Pool{New: func() any { return new(puf.Image) }}
)

func putPlaintext(p *[]byte) {
	clear((*p)[:cap(*p)])
	plaintexts.Put(p)
}

func putImage(im *puf.Image) {
	clear(im.Values[:cap(im.Values)])
	clear(im.Instability[:cap(im.Instability)])
	images.Put(im)
}

// imageGen identifies one sealed blob: its GCM nonce, drawn fresh by
// every Put. Two blobs stored for a client carry the same tag only if
// they are the same blob.
type imageGen [12]byte

// blob returns the sealed blob stored for id.
func (s *ImageStore) blob(id ClientID) ([]byte, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	sealed, ok := sh.blobs[id]
	sh.mu.RUnlock()
	return sealed, ok
}

// open unseals the blob stored for id, appending its plaintext to dst,
// and returns the blob's generation tag.
func (s *ImageStore) open(id ClientID, dst []byte) ([]byte, imageGen, error) {
	var gen imageGen
	sealed, ok := s.blob(id)
	if !ok {
		return nil, gen, fmt.Errorf("client %q not enrolled: %w", id, ErrUnknownClient)
	}
	if len(sealed) < len(gen) {
		return nil, gen, fmt.Errorf("core: corrupt image blob for %q", id)
	}
	copy(gen[:], sealed)
	plain, err := s.aead.Open(dst, sealed[:len(gen)], sealed[len(gen):], []byte(id))
	if err != nil {
		return nil, gen, fmt.Errorf("core: unseal image for %q: %w", id, err)
	}
	return plain, gen, nil
}

// decodeImageInto reads either plaintext a store has ever sealed into
// dst: the binary layout Put writes, or the gob stream Put wrote before
// it. Old blobs are never rewritten, so data directories, snapshots and
// follower streams from before the layout change stay readable.
func decodeImageInto(dst *puf.Image, plain []byte) error {
	if len(plain) > 0 && plain[0] == puf.ImageMagic {
		return puf.DecodeImageInto(dst, plain)
	}
	*dst = puf.Image{}
	return gob.NewDecoder(bytes.NewReader(plain)).Decode(dst)
}

// generation returns the tag of the blob currently stored for id.
func (s *ImageStore) generation(id ClientID) (imageGen, bool) {
	var gen imageGen
	sealed, ok := s.blob(id)
	if !ok || len(sealed) < len(gen) {
		return gen, false
	}
	copy(gen[:], sealed)
	return gen, true
}

// Has reports whether an image is stored for id.
func (s *ImageStore) Has(id ClientID) bool {
	_, ok := s.blob(id)
	return ok
}

// Delete removes a client's image (device revocation). Deleting an
// absent client is a no-op and is not journaled.
func (s *ImageStore) Delete(id ClientID) error {
	sh := s.shard(id)
	sh.mu.Lock()
	if _, ok := sh.blobs[id]; !ok {
		sh.mu.Unlock()
		return nil
	}
	if s.journal != nil {
		if err := s.journal.ImageDelete(id); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("core: journal image delete for %q: %w", id, err)
		}
	}
	delete(sh.blobs, id)
	sh.mu.Unlock()
	return s.commit.run()
}

// Drop removes a client's image without journaling (the replay path of
// an ImageDelete record).
func (s *ImageStore) Drop(id ClientID) {
	sh := s.shard(id)
	sh.mu.Lock()
	delete(sh.blobs, id)
	sh.mu.Unlock()
}

// Sealed iterates every stored blob, still sealed, one lock shard at a
// time (see rangeShards). It is how the store is persisted, so nothing it
// yields is a plaintext PUF image.
func (s *ImageStore) Sealed() iter.Seq2[ClientID, []byte] {
	return rangeShards(len(s.shards), func(i int) map[ClientID][]byte {
		sh := &s.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return maps.Clone(sh.blobs)
	})
}

// Len returns the number of enrolled clients.
func (s *ImageStore) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.blobs)
		sh.mu.RUnlock()
	}
	return n
}
