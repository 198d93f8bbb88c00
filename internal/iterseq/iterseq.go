// Package iterseq implements the seed-iteration algorithms of paper
// §3.2.1: the methods by which RBC search threads enumerate the d-bit-flip
// combinations of the 256-bit PUF seed space.
//
// Three families are provided, matching the paper's design space:
//
//   - Gosper: Gosper's hack lifted to 256-bit arithmetic, the method used
//     by prior RBC work. Enumerates masks in increasing numeric (colex)
//     order; partitioned via colex ranking.
//   - Alg515: Buckles-Lybanon lexicographic unranking (ACM Algorithm 515).
//     Pure random access - every combination is recomputed from its index,
//     so it parallelizes trivially but does the most work per seed.
//   - GrayCode: a revolving-door combinatorial Gray code. The paper uses
//     Chase's ACM Algorithm 382 here; the revolving-door code is the same
//     class of iterator (non-recursive minimal-change sequence with O(k)
//     state per thread, one element swapped per step) and additionally
//     supports exact ranking, so threads can seek straight to their
//     partition instead of loading precomputed checkpoint states. The
//     substitution is recorded in DESIGN.md.
//
// Mifsud's lexicographic successor (ACM Algorithm 154) is included as the
// historical baseline the paper's related-work section starts from.
//
// All iterators enumerate exactly the C(n,k) k-subsets of bit positions
// [0, n), each in its own order, and support starting at an arbitrary rank
// of that order, which is how the parallel search splits the space into
// disjoint per-thread subranges.
package iterseq

import (
	"fmt"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/u256"
)

// Method identifies a seed-iteration algorithm.
type Method int

const (
	// GrayCode is the revolving-door minimal-change iterator (the paper's
	// Chase Algorithm 382 slot). Sequential, cheapest transition.
	GrayCode Method = iota
	// Alg515 is Buckles-Lybanon lexicographic unranking. Random access,
	// most work per seed.
	Alg515
	// Gosper is Gosper's hack on 256-bit integers, as used in prior RBC
	// work. Sequential in colex order.
	Gosper
	// Mifsud154 is the lexicographic successor baseline.
	Mifsud154
)

var methodNames = map[Method]string{
	GrayCode:  "graycode",
	Alg515:    "alg515",
	Gosper:    "gosper256",
	Mifsud154: "mifsud154",
}

// String returns the method's short name.
func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Valid reports whether m names an implemented iteration method.
func (m Method) Valid() bool {
	_, ok := methodNames[m]
	return ok
}

// Methods lists all implemented methods in display order.
func Methods() []Method {
	return []Method{GrayCode, Alg515, Gosper, Mifsud154}
}

// Iter enumerates k-combinations of [0, n) in a method-specific order.
// Implementations are not safe for concurrent use; each search thread owns
// one.
type Iter interface {
	// Next writes the next combination into c as strictly increasing bit
	// positions and reports whether one was produced. len(c) must be k.
	Next(c []int) bool
}

// MaskIter is an Iter that can additionally produce combinations as
// 256-bit flip masks (bit p set iff position p is in the combination),
// a batch at a time. This is the host hot path's fast form: the
// minimal-change iterators (GrayCode, Gosper, Mifsud154) maintain the
// mask incrementally - a revolving-door step flips two mask bits
// instead of re-applying all k positions from scratch - while the
// random-access Alg515 rebuilds it per step, exactly mirroring each
// method's per-seed work profile on the GPU.
//
// The mask form requires n <= 256. Every iterator New returns is a
// MaskIter; Next and FillMasks may be freely interleaved on the same
// iterator and consume from the same sequence. A one-element dst is the
// scalar form.
type MaskIter interface {
	Iter
	// FillMasks writes the next len(dst) combinations' flip masks into
	// dst and returns how many it wrote; fewer than len(dst) means the
	// sequence is exhausted. It is the batched host engine's fill loop,
	// one call per batch at whatever stride the batch kernel asks for,
	// and allocates nothing. The masks are not applied to any base: the
	// batch kernel writes base^mask straight into its own layout, so the
	// iterator never needs the base.
	FillMasks(dst []u256.Uint256) int
}

// New returns an iterator for the given method over k-subsets of [0, n),
// positioned at startRank (in the method's own order) and yielding at most
// count combinations. count < 0 means "to the end of the sequence".
func New(method Method, n, k int, startRank uint64, count int64) (MaskIter, error) {
	total, ok := combin.Binomial64(n, k)
	if !ok {
		return nil, fmt.Errorf("iterseq: C(%d,%d) does not fit uint64", n, k)
	}
	if startRank > total {
		return nil, fmt.Errorf("iterseq: start rank %d beyond C(%d,%d)=%d", startRank, n, k, total)
	}
	remaining := int64(total - startRank)
	if count >= 0 && count < remaining {
		remaining = count
	}
	switch method {
	case GrayCode:
		return newGray(n, k, startRank, remaining)
	case Alg515:
		return newLex515(n, k, startRank, remaining)
	case Gosper:
		return newGosper(n, k, startRank, remaining)
	case Mifsud154:
		return newMifsud(n, k, startRank, remaining)
	default:
		return nil, fmt.Errorf("iterseq: unknown method %v", method)
	}
}

// ApplySeed returns base with the bits at the combination's positions
// flipped: the candidate seed for this combination.
func ApplySeed(base u256.Uint256, c []int) u256.Uint256 {
	for _, pos := range c {
		base = base.FlipBit(pos)
	}
	return base
}

// ApplyMask returns base with the mask's bits flipped: the candidate seed
// for a combination in mask form. It is a single 256-bit XOR, independent
// of the Hamming distance - the payoff of the MaskIter fast path.
func ApplyMask(base, mask u256.Uint256) u256.Uint256 {
	return base.Xor(mask)
}

// maskOf builds the flip mask for a combination. It requires every
// position to be in [0, 256).
func maskOf(c []int) u256.Uint256 {
	var m u256.Uint256
	for _, pos := range c {
		m = m.FlipBit(pos)
	}
	return m
}

// Partition divides the C(n,k) combination space into parts contiguous
// ranges (in any single method's order), returning the start rank and
// length of each. Lengths differ by at most one. Empty trailing parts are
// returned with length zero so callers can index partitions by thread id.
func Partition(n, k, parts int) ([]Range, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("iterseq: parts must be positive, got %d", parts)
	}
	total, ok := combin.Binomial64(n, k)
	if !ok {
		return nil, fmt.Errorf("iterseq: C(%d,%d) does not fit uint64", n, k)
	}
	out := make([]Range, parts)
	base := total / uint64(parts)
	extra := total % uint64(parts)
	start := uint64(0)
	for i := range out {
		length := base
		if uint64(i) < extra {
			length++
		}
		out[i] = Range{Start: start, Count: length}
		start += length
	}
	return out, nil
}

// Range is a contiguous block of combination ranks assigned to one thread.
type Range struct {
	Start uint64
	Count uint64
}
