package core

import (
	"encoding/binary"
	"math/bits"
	"time"

	"rbcsalted/internal/bitslice"
	"rbcsalted/internal/keccak"
	"rbcsalted/internal/sha1"
	"rbcsalted/internal/u256"
)

// MatchWidth is the capacity of a BatchMatcher call: the largest number
// of candidate seeds any batch engine evaluates at once (the 256-lane
// wide bit-sliced compression). Engines with a smaller natural stride
// advertise it via BatchWidth.
const MatchWidth = bitslice.Width256

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

// BatchMatcher is a Matcher that can evaluate up to MatchWidth
// candidates in one call. The host search accumulates candidates into a
// MatchWidth-slot buffer and matches them BatchWidth at a time;
// implementations that hash can amortize the per-seed fixed costs across
// the batch.
type BatchMatcher interface {
	Matcher
	// BatchWidth returns the engine's preferred candidates-per-call
	// stride, in (0, MatchWidth]. The host search fills batches to this
	// width; shorter final batches are still evaluated in one call.
	BatchWidth() int
	// MatchBatch evaluates cands[:n] and returns the per-lane match
	// mask. n is at most MatchWidth; lanes n and above of the result are
	// always clear. Implementations must evaluate partial batches with
	// the same engine as full ones (padding internally as needed), so a
	// candidate's verdict never depends on its batch's fill level.
	MatchBatch(cands *[MatchWidth]u256.Uint256, n int) MatchMask
}

// DeltaBatchMatcher is a BatchMatcher that can hold the candidate batch
// resident in its internal bit-sliced layout across calls and advance it
// by sparse XOR deltas of the candidates' flip masks, instead of
// re-marshalling (transpose included) every batch. The host search
// feeds it raw iterator masks (iterseq.FillMasks) rather than
// materialized seeds; candidates are only reconstructed for recorded
// hits. See DESIGN.md §16.
type DeltaBatchMatcher interface {
	BatchMatcher
	// DeltaCapable reports whether the currently selected kernel wants
	// the mask-form fill path. The host search checks it per worker and
	// falls back to the materialized-candidate loop when false.
	DeltaCapable() bool
	// MatchDeltaBatch evaluates the candidates base^masks[i] for i < n
	// and returns the per-lane match mask, with the same padding and
	// trimming contract as MatchBatch. Consecutive calls must follow one
	// iterator's mask sequence; the pad region masks[n:] may be
	// overwritten. Callers must hold DeltaCapable() true.
	MatchDeltaBatch(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int) MatchMask
	// InvalidateDelta breaks the resident delta chain: the next
	// MatchDeltaBatch packs from scratch. Required on iterator restarts
	// and task switches, where a lane's previous mask no longer precedes
	// its next one in any single iterator sequence.
	InvalidateDelta()
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
//   - MatchBatch evaluates up to MatchWidth candidates with the batch
//     kernel the calibration table selected for the algorithm (see
//     BatchKernel): a bit-sliced compression whose digest bit columns
//     are AND-reduced against the target into the match mask - the
//     software transpose of the APU's associative compare (§3.3) - or
//     the multi-buffer interleaved scalar compression for SHA-1.
//     Partial batches are padded with the last candidate and the pad
//     lanes masked out, so every candidate sees the same engine.
//
// A HashMatcher is single-worker state; build one per goroutine via
// HashMatcherFactory.
type HashMatcher struct {
	alg   HashAlg
	quick uint64    // first 64 digest bits, big-endian
	sha1T [5]uint32 // SHA-1 target digest words (big-endian)
	sha3T [4]uint64 // SHA-3 target digest lanes (little-endian)
	raw   [32]byte  // full target digest bytes
	eng   bitslice.Engine

	// Kernel selects the batch engine. NewHashMatcher sets the
	// calibration table's measured-fastest kernel for the algorithm
	// (DefaultKernel); the equivalence tests force specific kernels to
	// cross-validate every path. A kernel the algorithm has no
	// implementation for falls back per batch group: KernelSliced256
	// degrades to KernelSliced64, anything else to the scalar loop.
	Kernel BatchKernel

	// seeds and vals are batch staging buffers, kept on the matcher so
	// the hot loop never allocates. vals holds the four message lanes of
	// each candidate for the wide path, extracted straight from the
	// Uint256 limbs (no byte serialization round trip).
	seeds [MatchWidth][32]byte
	vals  [4][MatchWidth]uint64

	// stage is lent to the host loop (see batchStager).
	stage [MatchWidth]u256.Uint256

	// Sliced-domain delta state (KernelSliced256Delta, DESIGN.md §16).
	// deltaMsg holds the batch's four message lanes resident in flat
	// sliced layout; deltaPrev remembers each lane's last flip mask so the
	// next batch can advance it by the sparse XOR difference. deltaLive
	// marks the chain coherent: it drops on Reset, InvalidateDelta and any
	// repack MatchBatch (which reuses deltaMsg as scratch), forcing the
	// next MatchDeltaBatch to pack from scratch.
	deltaMsg  [4]bitslice.Slice256
	deltaPrev [MatchWidth]u256.Uint256
	deltaLive bool
}

// batchStager is an optional BatchMatcher capability: a matcher-owned
// buffer the host loop stages each batch's candidates (or flip masks) in,
// instead of an 8 KB array of its own that escapes to the heap on every
// search. A pooled matcher thereby carries it across requests.
type batchStager interface {
	batchStage() *[MatchWidth]u256.Uint256
}

func (m *HashMatcher) batchStage() *[MatchWidth]u256.Uint256 { return &m.stage }

// NewHashMatcher builds a HashMatcher for one (algorithm, target) pair.
func NewHashMatcher(alg HashAlg, target Digest) *HashMatcher {
	m := &HashMatcher{}
	m.Reset(alg, target)
	return m
}

// Reset reconfigures the matcher for a new (algorithm, target) pair,
// re-reads the calibration table and invalidates any resident sliced
// candidate state. A delta chain is only meaningful within one search's
// iterator sequence, so a matcher drawn from a reuse pool must never
// carry it across a task switch; everything else on the matcher is
// derived from (alg, target) or overwritten before use.
func (m *HashMatcher) Reset(alg HashAlg, target Digest) {
	m.alg = alg
	m.raw = target.b
	m.Kernel = DefaultKernel(alg)
	m.quick = binary.BigEndian.Uint64(target.b[:8])
	for w := range m.sha1T {
		m.sha1T[w] = binary.BigEndian.Uint32(target.b[w*4:])
	}
	for l := range m.sha3T {
		m.sha3T[l] = binary.LittleEndian.Uint64(target.b[l*8:])
	}
	m.deltaLive = false
}

// HashMatcherFactory returns a MatcherFactory producing one HashMatcher
// per worker. This is the default matcher of every hashing backend.
//
// When the calibration table holds no batch kernel measured faster than
// the scalar fast path for the algorithm, the matcher is returned
// without its BatchMatcher capability, so the search engine skips batch
// accumulation entirely instead of buffering candidates just to hash
// them one at a time.
func HashMatcherFactory(alg HashAlg, target Digest) MatcherFactory {
	return func() Matcher {
		m := NewHashMatcher(alg, target)
		if m.Kernel == KernelScalar {
			return scalarOnly{m}
		}
		return m
	}
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

// BatchWidth implements BatchMatcher: the selected kernel's natural
// stride. The 256-lane wide compression wants full 256-candidate
// batches; the 64-wide sliced and the 4-way multi-buffer kernels run in
// 64-candidate strides (the multi-buffer kernel consumes them in
// interleave groups internally), which keeps early-exit polling and
// covered accounting finer-grained at no amortization cost.
func (m *HashMatcher) BatchWidth() int {
	if (m.Kernel == KernelSliced256 || m.Kernel == KernelSliced256Delta) &&
		m.alg == SHA3 {
		return bitslice.Width256
	}
	return bitslice.Width
}

// MatchBatch implements BatchMatcher. Full 256-candidate batches take
// one wide compression when KernelSliced256 is selected; everything
// else - including the padded tail groups of partial batches - runs in
// 64-candidate groups so a short batch never pays for a full wide
// compression.
func (m *HashMatcher) MatchBatch(cands *[MatchWidth]u256.Uint256, n int) MatchMask {
	var mask MatchMask
	if n <= 0 {
		return mask
	}
	if n > MatchWidth {
		n = MatchWidth
	}
	kernel := m.Kernel
	if kernel == KernelScalar {
		for i := 0; i < n; i++ {
			if m.Match(cands[i]) {
				mask.SetBit(i)
			}
		}
		return mask
	}
	if kernel == KernelSliced256Delta {
		// The delta kernel's plain-candidate entry is the repack path:
		// without the mask form there is no delta to apply, so the batch
		// is evaluated exactly like KernelSliced256 — and any resident
		// delta chain is invalidated, because the repack below reuses
		// deltaMsg as its pack buffer.
		kernel = KernelSliced256
		m.deltaLive = false
	}
	hbm := loadHostBatchMetrics()

	if kernel == KernelSliced256 && m.alg == SHA3 && n == MatchWidth {
		// Wide path: feed the message lanes straight from the Uint256
		// limbs. A seed's big-endian byte stream hashes as little-endian
		// 64-bit lanes, so lane l of candidate i is limb 3-l byte-swapped.
		var t0 time.Time
		if hbm != nil {
			t0 = time.Now()
		}
		for i := 0; i < MatchWidth; i++ {
			m.vals[0][i] = bits.ReverseBytes64(cands[i].Limb(3))
			m.vals[1][i] = bits.ReverseBytes64(cands[i].Limb(2))
			m.vals[2][i] = bits.ReverseBytes64(cands[i].Limb(1))
			m.vals[3][i] = bits.ReverseBytes64(cands[i].Limb(0))
		}
		bitslice.PackSeedVals256(&m.deltaMsg, &m.vals)
		if hbm != nil {
			hbm.Pack.Observe(float64(time.Since(t0).Nanoseconds()))
		}
		lanes := m.eng.SHA3Msg256WideSliced(&m.deltaMsg)
		mask = MatchMask(bitslice.MatchSliced256(lanes[:], m.sha3T[:]))
		return mask
	}

	var t0 time.Time
	if hbm != nil {
		t0 = time.Now()
	}
	for i := 0; i < n; i++ {
		m.seeds[i] = cands[i].Bytes()
	}
	if hbm != nil {
		hbm.Pack.Observe(float64(time.Since(t0).Nanoseconds()))
	}

	// 64-candidate groups; the last group is padded with the final
	// candidate and its pad lanes trimmed from the combined mask.
	for g := 0; g*bitslice.Width < n; g++ {
		lo := g * bitslice.Width
		hi := lo + bitslice.Width
		if hi > n {
			for i := n; i < hi; i++ {
				m.seeds[i] = m.seeds[n-1]
			}
		}
		grp := (*[bitslice.Width][32]byte)(m.seeds[lo:hi])
		var gm uint64
		switch {
		case m.alg == SHA1 && kernel == KernelMulti4:
			gm = m.matchMulti4(grp)
		case m.alg == SHA1:
			words := m.eng.SHA1SeedsSliced(grp)
			gm = bitslice.MatchSliced32(words[:], m.sha1T[:])
		default:
			lanes := m.eng.SHA3Seeds256Sliced(grp)
			gm = bitslice.MatchSliced64(lanes[:], m.sha3T[:])
		}
		mask[g] = gm
	}
	mask.Trim(n)
	return mask
}

// DeltaCapable implements DeltaBatchMatcher: the mask-form fill path is
// wanted exactly when the sliced-domain delta kernel is selected (and
// implemented, i.e. SHA-3).
func (m *HashMatcher) DeltaCapable() bool {
	return m.Kernel == KernelSliced256Delta && m.alg == SHA3
}

// InvalidateDelta implements DeltaBatchMatcher.
func (m *HashMatcher) InvalidateDelta() { m.deltaLive = false }

// MatchDeltaBatch implements DeltaBatchMatcher: evaluate the candidates
// base^masks[i] for i < n with the batch resident in sliced layout. The
// first call of a chain packs the message lanes from scratch (limb
// extraction plus four 64x64 bit transposes — the price KernelSliced256
// pays every batch); each later call advances lane i by the XOR of its
// consecutive masks, which for Hamming-distance-k masks is at most 2k
// single-word XORs (bitslice.DeltaFill). Partial batches are padded in
// place with masks[n-1] — the pad region of masks is overwritten — kept
// in the chain like any other lane, and trimmed from the result, so
// mid-batch winners and covered accounting agree lane-exactly with every
// other engine.
func (m *HashMatcher) MatchDeltaBatch(base u256.Uint256, masks *[MatchWidth]u256.Uint256, n int) MatchMask {
	var mask MatchMask
	if n <= 0 {
		return mask
	}
	if n > MatchWidth {
		n = MatchWidth
	}
	if !m.DeltaCapable() {
		panic("core: MatchDeltaBatch on a non-delta kernel (check DeltaCapable)")
	}
	hbm := loadHostBatchMetrics()
	var t0 time.Time
	if hbm != nil {
		t0 = time.Now()
	}
	for i := n; i < MatchWidth; i++ {
		masks[i] = masks[n-1]
	}
	if !m.deltaLive {
		// Prime the chain: materialize base^mask per lane and pack once.
		for i := 0; i < MatchWidth; i++ {
			cand := base.Xor(masks[i])
			m.vals[0][i] = bits.ReverseBytes64(cand.Limb(3))
			m.vals[1][i] = bits.ReverseBytes64(cand.Limb(2))
			m.vals[2][i] = bits.ReverseBytes64(cand.Limb(1))
			m.vals[3][i] = bits.ReverseBytes64(cand.Limb(0))
		}
		bitslice.PackSeedVals256(&m.deltaMsg, &m.vals)
		m.deltaLive = true
	} else {
		// Advance: lane i moved from deltaPrev[i] to masks[i]; base
		// cancels out of the XOR, so the seed-domain delta is just the
		// mask difference.
		for i := 0; i < MatchWidth; i++ {
			prev := &m.deltaPrev[i]
			d0 := masks[i].Limb(0) ^ prev.Limb(0)
			d1 := masks[i].Limb(1) ^ prev.Limb(1)
			d2 := masks[i].Limb(2) ^ prev.Limb(2)
			d3 := masks[i].Limb(3) ^ prev.Limb(3)
			if d0|d1|d2|d3 != 0 {
				bitslice.DeltaFill(&m.deltaMsg, i, d0, d1, d2, d3)
			}
		}
	}
	copy(m.deltaPrev[:], masks[:])
	if hbm != nil {
		hbm.Pack.Observe(float64(time.Since(t0).Nanoseconds()))
	}
	lanes := m.eng.SHA3Msg256WideSliced(&m.deltaMsg)
	mask = MatchMask(bitslice.MatchSliced256(lanes[:], m.sha3T[:]))
	mask.Trim(n)
	return mask
}

// matchMulti4 evaluates one 64-candidate group with the interleaved
// multi-buffer SHA-1 kernel: sixteen 4-lane compressions, each lane's
// digest words compared against the target (first-word compare rejects
// all but a ~2^-32 fraction).
func (m *HashMatcher) matchMulti4(grp *[bitslice.Width][32]byte) uint64 {
	var words [sha1.MultiWidth][5]uint32
	var gm uint64
	for q := 0; q < bitslice.Width; q += sha1.MultiWidth {
		quad := (*[sha1.MultiWidth][32]byte)(grp[q : q+sha1.MultiWidth])
		sha1.SeedWords4(quad, &words)
		for l := 0; l < sha1.MultiWidth; l++ {
			h := &words[l]
			if h[0] == m.sha1T[0] && h[1] == m.sha1T[1] && h[2] == m.sha1T[2] &&
				h[3] == m.sha1T[3] && h[4] == m.sha1T[4] {
				gm |= 1 << uint(q+l)
			}
		}
	}
	return gm
}
