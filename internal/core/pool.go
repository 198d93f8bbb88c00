package core

import "sync"

// Matcher reuse. A HashMatcher carries ~25KB of batch staging buffers,
// and a serving CA builds one per worker per search — thousands per
// second at paper-scale load, each a fresh allocation the GC then has
// to chase. PooledHashMatcherFactory recycles them through a sync.Pool;
// Reset on every draw re-derives all target state and MatchMasks
// overwrites the staging buffers before reading them, so reuse never
// leaks candidate or target state across tasks.

// MatcherReleaser is an optional Matcher capability: the host search
// calls ReleaseMatcher once a worker goroutine is done with its matcher,
// giving pooled matchers their way back to the pool. A matcher must not
// be used after release.
type MatcherReleaser interface {
	ReleaseMatcher()
}

// ReleaseMatcher forwards the release hook through the batch-capability
// strip, so forcing the scalar path does not strand pooled matchers.
func (s scalarOnly) ReleaseMatcher() {
	if r, ok := s.m.(MatcherReleaser); ok {
		r.ReleaseMatcher()
	}
}

// pooledHashMatcher is a HashMatcher that returns itself to its pool on
// release. The wrapper (not the HashMatcher) carries the pool pointer so
// the pooled object stays a clean *HashMatcher.
type pooledHashMatcher struct {
	*HashMatcher
	pool *sync.Pool
}

func (p *pooledHashMatcher) ReleaseMatcher() { p.pool.Put(p.HashMatcher) }

// PooledHashMatcherFactory is HashMatcherFactory drawing matchers from
// pool instead of allocating one per worker. The pool is caller-owned
// (typically one per backend) and needs no New function; an empty pool
// allocates. Matchers come out Reset to (alg, target) and go back when
// the search worker releases them.
func PooledHashMatcherFactory(pool *sync.Pool, alg HashAlg, target Digest) MatcherFactory {
	return func() Matcher {
		m, ok := pool.Get().(*HashMatcher)
		if !ok {
			m = &HashMatcher{}
		}
		m.Reset(alg, target)
		return &pooledHashMatcher{HashMatcher: m, pool: pool}
	}
}
