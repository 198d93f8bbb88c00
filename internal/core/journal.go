package core

import (
	"fmt"
	"hash/fnv"
	"iter"
)

// Journal receives every durable mutation of the CA's state — image puts
// and deletes, RA key/certificate updates and deletions — before the
// mutation is applied to the in-memory maps. A journal that returns an
// error vetoes the mutation: the store leaves its map untouched and
// propagates the error, so memory never gets ahead of the log. Sessions
// are not journaled (see SessionTable): what makes a challenge safe
// across a restart is its nonce lease (SessionTable.SetLease).
//
// The canonical implementation is internal/durable.State, which appends
// a record to a write-ahead log. Image blobs reach the journal already
// sealed under the store's AES-256-GCM master key, so a journal (and
// therefore the WAL and every snapshot) never sees a plaintext PUF
// image.
//
// A journal call records the mutation in order; it need not make it
// durable. Durability is the stores' commit barrier (SetCommit, wired by
// durable.Open beside the journal): every exported mutator runs it after
// releasing the shard lock and before returning, so a mutation is durable
// when its caller learns of it, and CA.Authenticate takes the RA's once
// for what an authentication journaled. A failed barrier is returned as
// an error although the mutation is already applied in memory — the log
// can no longer vouch for it, and nothing may be acknowledged.
//
// All methods must be safe for concurrent use; they are invoked while
// the owning shard's lock is held, which serializes journal entries for
// the same client but not across clients.
type Journal interface {
	// ImagePut records an enrollment (or re-enrollment): the sealed blob
	// stored for id.
	ImagePut(id ClientID, sealed []byte) error
	// ImageDelete records an image removal (device revocation).
	ImageDelete(id ClientID) error
	// RAKeyUpdate records the client's new public key after a successful
	// authentication (RBC-SALTED re-keys on every authentication).
	RAKeyUpdate(id ClientID, publicKey []byte) error
	// RACertUpdate records the client's new CA certificate.
	RACertUpdate(id ClientID, cert *Certificate) error
	// RADelete records removal of a client from the registry.
	RADelete(id ClientID) error
	// SessionOpen and SessionClose are never called: sessions are not
	// journaled. They remain for wrappers that forward every method, as
	// benchmark/trace.go's timedJournal does.
	SessionOpen(id ClientID, ch Challenge) error
	SessionClose(id ClientID) error
}

// commitFunc is a store's durability barrier: it returns once every
// mutation journaled before the call is durable. Nil means none.
type commitFunc func() error

func (c commitFunc) run() error {
	if c == nil {
		return nil
	}
	if err := c(); err != nil {
		return fmt.Errorf("core: commit: %w", err)
	}
	return nil
}

// DefaultShards is the stripe count of the sharded stores (ImageStore,
// RA, SessionTable). 16 stripes keep lock contention negligible at the
// serving concurrency the scheduler admits while costing ~1 KiB of
// mutexes per store.
const DefaultShards = 16

// shardIndex maps a client ID onto one of n stripes with FNV-1a. The
// same function is used by every sharded store, so a client's image,
// keys and session always hash consistently.
func shardIndex(id ClientID, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// rangeShards iterates a store striped across n lock shards, one shard
// at a time: copyShard(i) returns a copy of shard i's map, taken under
// that shard's lock, and its entries are yielded after the lock is
// released, so a consumer that encodes or writes each one never stalls
// the shard's writers. Values are shared with the store, which replaces
// a value and never modifies one in place; consumers must not modify them.
func rangeShards[V any](n int, copyShard func(i int) map[ClientID]V) iter.Seq2[ClientID, V] {
	return func(yield func(ClientID, V) bool) {
		for i := range n {
			for id, v := range copyShard(i) {
				if !yield(id, v) {
					return
				}
			}
		}
	}
}
