package core

import (
	"encoding/binary"
	"math/bits"
	"time"

	"rbcsalted/internal/keccak"
	"rbcsalted/internal/sha1"
	"rbcsalted/internal/u256"
)

// MatchWidth is the capacity of a BatchMatcher call: the largest number
// of candidate seeds one call evaluates. Engines advertise the stride
// they want the host loop to fill via BatchWidth.
const MatchWidth = 256

// MatchMask is a per-lane match bitmask for up to MatchWidth candidates:
// bit i%64 of word i/64 reports candidate i.
type MatchMask [4]uint64

// Any reports whether any lane matched.
func (m MatchMask) Any() bool { return m[0]|m[1]|m[2]|m[3] != 0 }

// Bit reports whether candidate i matched.
func (m MatchMask) Bit(i int) bool { return m[i>>6]>>(uint(i)&63)&1 == 1 }

// SetBit marks candidate i as matched.
func (m *MatchMask) SetBit(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// ClearBit unmarks candidate i.
func (m *MatchMask) ClearBit(i int) { m[i>>6] &^= 1 << (uint(i) & 63) }

// FirstLane returns the lowest matched candidate index, or -1 if none.
// Combined with ClearBit it iterates matches in candidate order.
func (m MatchMask) FirstLane() int {
	for w, v := range m {
		if v != 0 {
			return w<<6 | bits.TrailingZeros64(v)
		}
	}
	return -1
}

// Trim clears all lanes at index n and above - the pad-lane mask of a
// partial batch.
func (m *MatchMask) Trim(n int) {
	if n >= MatchWidth {
		return
	}
	if n < 0 {
		n = 0
	}
	w := n >> 6
	m[w] &= 1<<(uint(n)&63) - 1
	for w++; w < 4; w++ {
		m[w] = 0
	}
}

// Count returns the number of matched lanes.
func (m MatchMask) Count() int {
	return bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) +
		bits.OnesCount64(m[2]) + bits.OnesCount64(m[3])
}

// Matcher decides whether candidate seeds match the search target. A
// Matcher instance is owned by a single worker goroutine, so
// implementations need not be safe for concurrent use; shared state
// behind a Matcher (a key generator, a counter) must synchronize itself.
type Matcher interface {
	// Match reports whether one candidate matches.
	Match(candidate u256.Uint256) bool
}

// BatchMatcher is a Matcher that evaluates up to MatchWidth candidates
// in one call, taking them in mask form: candidate i is base^masks[i],
// exactly what the iterators' mask fast path produces. The host
// search fills BatchWidth masks at a time (iterseq.MaskIter.FillMasks)
// and only materializes a candidate for a recorded hit; implementations
// that hash amortize the per-seed fixed costs across the batch.
type BatchMatcher interface {
	Matcher
	// BatchWidth returns the engine's preferred candidates-per-call
	// stride, in (0, MatchWidth]. The host search fills batches to this
	// width; shorter final batches are still evaluated in one call.
	BatchWidth() int
	// MatchMasks evaluates the candidates base^masks[i] for i < n and
	// returns the per-lane match mask. n is at most MatchWidth; lanes n
	// and above of the result are always clear. Implementations must
	// evaluate partial batches with the same engine as full ones
	// (padding internally as needed - the pad region masks[n:] may be
	// overwritten), so a candidate's verdict never depends on its
	// batch's fill level.
	MatchMasks(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int) MatchMask
}

// MatchFunc adapts a plain predicate to Matcher (scalar-only).
type MatchFunc func(u256.Uint256) bool

// Match implements Matcher.
func (f MatchFunc) Match(candidate u256.Uint256) bool { return f(candidate) }

// MatcherFactory builds one Matcher per search worker. Factories are
// called once per worker goroutine, from that goroutine.
type MatcherFactory func() Matcher

// MatchFuncFactory wraps a concurrency-safe predicate as a
// MatcherFactory; every worker shares the same function.
func MatchFuncFactory(f func(u256.Uint256) bool) MatcherFactory {
	return func() Matcher { return MatchFunc(f) }
}

// scalarOnly hides a Matcher's batch capability, forcing the host
// search's one-seed-at-a-time path.
type scalarOnly struct{ m Matcher }

func (s scalarOnly) Match(candidate u256.Uint256) bool { return s.m.Match(candidate) }

// ScalarMatcher strips the BatchMatcher capability from factory's
// matchers, forcing the scalar path. It is the correctness oracle for
// the batched engine and the baseline of the throughput benchmarks.
func ScalarMatcher(factory MatcherFactory) MatcherFactory {
	return func() Matcher { return scalarOnly{factory()} }
}

// HashMatcher matches candidates whose fixed-padding digest equals a
// target digest - the RBC-SALTED search predicate. It implements both
// match paths:
//
//   - Match hashes one seed with the scalar fast path (sha1.SumSeed /
//     keccak.Sum256Seed, no Digest boxing) and quick-rejects on the first
//     64 digest bits before comparing the rest - one uint64 compare
//     decides all but a ~2^-64 fraction of candidates.
//   - MatchMasks evaluates up to MatchWidth candidates with the
//     algorithm's batch kernel (DefaultKernel): base^mask is
//     materialized per candidate and hashed eight at a time by the
//     lane-interleaved Keccak (SHA-3) or four at a time by the
//     interleaved multi-buffer compression (SHA-1), and every digest is
//     compared in full against the target. The last group of a partial
//     batch is padded with the final candidate and the pad lanes masked
//     out, so every candidate sees the same engine.
//
// A HashMatcher is single-worker state; build one per goroutine via
// HashMatcherFactory.
type HashMatcher struct {
	alg   HashAlg
	quick uint64    // first 64 digest bits, big-endian
	sha1T [5]uint32 // SHA-1 target digest words (big-endian)
	sha3T [4]uint64 // SHA-3 target digest lanes (little-endian)
	raw   [32]byte  // full target digest bytes

	// stage is lent to the host loop (see batchStager).
	stage [MatchWidth]u256.Uint256

	// The batch's materialized candidates, kept on the matcher so the
	// hot loop never allocates: serialized seeds for SHA-1, groups of
	// eight lane-interleaved messages for SHA-3. Both are fully written
	// before they are read on every call, so nothing of one task's
	// candidates reaches the next.
	seeds [MatchWidth][32]byte
	msgs  [MatchWidth / keccakGroup][4][keccakGroup]uint64
}

// keccakGroup is the number of seeds one keccak.SeedDigests8 call hashes.
const keccakGroup = 8

// batchStager is an optional BatchMatcher capability: a matcher-owned
// buffer the host loop stages each batch's flip masks in, instead of an
// 8 KB array of its own that escapes to the heap on every search. A
// pooled matcher thereby carries it across requests.
type batchStager interface {
	batchStage() *[MatchWidth]u256.Uint256
}

func (m *HashMatcher) batchStage() *[MatchWidth]u256.Uint256 { return &m.stage }

// packTimer is an optional BatchMatcher capability: a MatchMasks that
// also returns how long its pack phase took, which the host loop calls
// for the one batch per poll interval it samples (HostBatchMetrics).
// Every other batch goes through MatchMasks and reads no clock.
type packTimer interface {
	matchMasksTimed(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int) (MatchMask, int64)
}

func (m *HashMatcher) matchMasksTimed(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int) (MatchMask, int64) {
	return m.matchMasks(base, masks, n, true)
}

// NewHashMatcher builds a HashMatcher for one (algorithm, target) pair.
func NewHashMatcher(alg HashAlg, target Digest) *HashMatcher {
	m := &HashMatcher{}
	m.Reset(alg, target)
	return m
}

// Reset reconfigures the matcher for a new (algorithm, target) pair. A
// matcher drawn from a reuse pool must never carry state across a task
// switch: everything on it is derived here from (alg, target) or
// overwritten by MatchMasks before use.
func (m *HashMatcher) Reset(alg HashAlg, target Digest) {
	m.alg = alg
	m.raw = target.b
	m.quick = binary.BigEndian.Uint64(target.b[:8])
	for w := range m.sha1T {
		m.sha1T[w] = binary.BigEndian.Uint32(target.b[w*4:])
	}
	for l := range m.sha3T {
		m.sha3T[l] = binary.LittleEndian.Uint64(target.b[l*8:])
	}
}

// HashMatcherFactory returns a MatcherFactory producing one HashMatcher
// per worker. This is the default matcher of every hashing backend.
func HashMatcherFactory(alg HashAlg, target Digest) MatcherFactory {
	return func() Matcher { return NewHashMatcher(alg, target) }
}

// Match implements Matcher with the scalar quick-reject path.
func (m *HashMatcher) Match(candidate u256.Uint256) bool {
	raw := candidate.Bytes()
	switch m.alg {
	case SHA1:
		sum := sha1.SumSeed(&raw)
		if binary.BigEndian.Uint64(sum[:8]) != m.quick {
			return false
		}
		return [20]byte(m.raw[:20]) == sum
	case SHA3:
		sum := keccak.Sum256Seed(&raw)
		if binary.BigEndian.Uint64(sum[:8]) != m.quick {
			return false
		}
		return m.raw == sum
	default:
		panic("core: HashMatcher with unknown algorithm")
	}
}

// batchStride is the stride both batch kernels run at. Neither
// amortizes anything beyond its interleave group (eight seeds, four
// seeds), so a short stride keeps early-exit polling and covered
// accounting fine-grained at no cost: early exit overshoots the winner
// by at most 63 candidates.
const batchStride = 64

// BatchWidth implements BatchMatcher.
func (m *HashMatcher) BatchWidth() int { return batchStride }

// MatchMasks implements BatchMatcher with the algorithm's batch kernel.
func (m *HashMatcher) MatchMasks(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int) MatchMask {
	hits, _ := m.matchMasks(base, masks, n, false)
	return hits
}

// matchMasks is MatchMasks that, when timed, also returns the pack
// phase's duration in nanoseconds.
func (m *HashMatcher) matchMasks(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int, timed bool) (MatchMask, int64) {
	if n <= 0 {
		return MatchMask{}, 0
	}
	if n > MatchWidth {
		n = MatchWidth
	}
	var hits MatchMask
	var packNs int64
	switch m.alg {
	case SHA1:
		hits, packNs = m.matchMulti4(base, masks, n, timed)
	case SHA3:
		hits, packNs = m.matchKeccakX8(base, masks, n, timed)
	default:
		panic("core: HashMatcher with unknown algorithm")
	}
	hits.Trim(n)
	return hits, packNs
}

// matchKeccakX8 evaluates one batch with the lane-interleaved Keccak:
// all candidates are materialized first (the pack phase, timed when
// asked), the last group padded with the final candidate, then hashed
// eight per call and each digest compared lane for lane against the
// target. A seed's big-endian byte stream hashes as little-endian
// 64-bit lanes, so message lane l of a candidate is limb 3-l
// byte-swapped.
func (m *HashMatcher) matchKeccakX8(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int, timed bool) (MatchMask, int64) {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	groups := (n + keccakGroup - 1) / keccakGroup
	b0, b1, b2, b3 := base.Limb(0), base.Limb(1), base.Limb(2), base.Limb(3)
	for g := 0; g < groups; g++ {
		msg := &m.msgs[g]
		for i := 0; i < keccakGroup; i++ {
			mask := &masks[min(g*keccakGroup+i, n-1)]
			msg[0][i] = bits.ReverseBytes64(b3 ^ mask.Limb(3))
			msg[1][i] = bits.ReverseBytes64(b2 ^ mask.Limb(2))
			msg[2][i] = bits.ReverseBytes64(b1 ^ mask.Limb(1))
			msg[3][i] = bits.ReverseBytes64(b0 ^ mask.Limb(0))
		}
	}
	var packNs int64
	if timed {
		packNs = time.Since(t0).Nanoseconds()
	}

	var hits MatchMask
	var sums [4][keccakGroup]uint64
	for g := 0; g < groups; g++ {
		keccak.SeedDigests8(&m.msgs[g], &sums)
		for i := 0; i < keccakGroup; i++ {
			if sums[0][i] == m.sha3T[0] && sums[1][i] == m.sha3T[1] &&
				sums[2][i] == m.sha3T[2] && sums[3][i] == m.sha3T[3] {
				hits.SetBit(g*keccakGroup + i)
			}
		}
	}
	return hits, packNs
}

// matchMulti4 evaluates one batch with the interleaved multi-buffer
// SHA-1 kernel: candidates are materialized (base^mask, serialized) into
// the staging buffer (the pack phase, timed when asked), the last
// interleave group padded with the final candidate, then hashed four at
// a time and each lane's digest words compared against the target (the
// first-word compare rejects all but a ~2^-32 fraction).
func (m *HashMatcher) matchMulti4(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int, timed bool) (MatchMask, int64) {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	padded := (n + sha1.MultiWidth - 1) &^ (sha1.MultiWidth - 1)
	for i := 0; i < n; i++ {
		m.seeds[i] = base.Xor(masks[i]).Bytes()
	}
	for i := n; i < padded; i++ {
		m.seeds[i] = m.seeds[n-1]
	}
	var packNs int64
	if timed {
		packNs = time.Since(t0).Nanoseconds()
	}

	var hits MatchMask
	var words [sha1.MultiWidth][5]uint32
	for q := 0; q < padded; q += sha1.MultiWidth {
		quad := (*[sha1.MultiWidth][32]byte)(m.seeds[q : q+sha1.MultiWidth])
		sha1.SeedWords4(quad, &words)
		for l := 0; l < sha1.MultiWidth; l++ {
			h := &words[l]
			if h[0] == m.sha1T[0] && h[1] == m.sha1T[1] && h[2] == m.sha1T[2] &&
				h[3] == m.sha1T[3] && h[4] == m.sha1T[4] {
				hits.SetBit(q + l)
			}
		}
	}
	return hits, packNs
}
