package iterseq

import (
	"math/bits"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/u256"
)

// gosperIter enumerates k-bit masks in increasing numeric order using
// Gosper's hack on 256-bit arithmetic. This is the iterator prior RBC work
// used; at 256 bits every step pays for multi-limb negation, addition,
// variable shift and division-by-power-of-two, which is exactly the
// overhead the paper measures against.
type gosperIter struct {
	n, k      int
	mask      u256.Uint256
	remaining int64
	scratch   []int
}

func newGosper(n, k int, startRank uint64, count int64) (*gosperIter, error) {
	it := &gosperIter{n: n, k: k, remaining: count, scratch: make([]int, k)}
	if count == 0 {
		return it, nil
	}
	// Gosper order == colex order, so the start mask comes from a colex
	// unrank. This is how the parallel search jumps each thread to its
	// own disjoint subrange.
	if err := combin.UnrankColex(n, startRank, it.scratch); err != nil {
		return nil, err
	}
	it.mask = u256.Zero
	for _, pos := range it.scratch {
		it.mask = it.mask.SetBit(pos, 1)
	}
	return it, nil
}

func (it *gosperIter) Next(c []int) bool {
	if it.remaining <= 0 {
		return false
	}
	it.remaining--
	maskToCombination(it.mask, c)
	if it.remaining > 0 {
		it.mask = gosperNext(it.mask)
	}
	return true
}

// FillMasks implements MaskIter. The Gosper iterator's state *is* the
// mask, so this path skips the per-seed bit-scan that Next pays to
// extract positions - the fastest form of the method prior RBC work used.
func (it *gosperIter) FillMasks(dst []u256.Uint256) int {
	n := int(min(int64(len(dst)), it.remaining))
	for i := 0; i < n; i++ {
		dst[i] = it.mask
		it.remaining--
		if it.remaining > 0 {
			it.mask = gosperNext(it.mask)
		}
	}
	return n
}

// gosperNext computes the next-higher integer with the same popcount:
//
//	u = x & -x
//	v = x + u
//	next = v | (((v ^ x) / u) >> 2)
//
// It works on raw limbs rather than u256 value operations: u is a
// single bit (the lowest set bit), so the negate-and-mask collapses to a
// trailing-zeros scan, the division by u plus the >>2 collapse to one
// funnel shift by tz+2, and everything is branchless - this step runs
// once per candidate in the batched host fill loop.
func gosperNext(x u256.Uint256) u256.Uint256 {
	x0, x1, x2, x3 := x.Limb(0), x.Limb(1), x.Limb(2), x.Limb(3)

	// tz = index of the lowest set bit; u = 1 << tz.
	var tz uint
	switch {
	case x0 != 0:
		tz = uint(bits.TrailingZeros64(x0))
	case x1 != 0:
		tz = 64 + uint(bits.TrailingZeros64(x1))
	case x2 != 0:
		tz = 128 + uint(bits.TrailingZeros64(x2))
	default:
		tz = 192 + uint(bits.TrailingZeros64(x3))
	}

	// v = x + u, one add with carry per limb.
	var u [4]uint64
	u[tz>>6] = 1 << (tz & 63)
	v0, c := bits.Add64(x0, u[0], 0)
	v1, c := bits.Add64(x1, u[1], c)
	v2, c := bits.Add64(x2, u[2], c)
	v3, _ := bits.Add64(x3, u[3], c)

	// w = (v ^ x) >> (tz + 2), as a branchless funnel shift: Go defines
	// shifts of 64 or more as zero, so the cross-limb term vanishes on
	// its own when the bit shift is zero, and reading past the top limbs
	// of the padded array yields the zeros a 256-bit shift-out needs.
	var t [9]uint64
	t[0], t[1], t[2], t[3] = v0^x0, v1^x1, v2^x2, v3^x3
	s := tz + 2
	ls, bs := s>>6, s&63
	w0 := t[ls]>>bs | t[ls+1]<<(64-bs)
	w1 := t[ls+1]>>bs | t[ls+2]<<(64-bs)
	w2 := t[ls+2]>>bs | t[ls+3]<<(64-bs)
	w3 := t[ls+3]>>bs | t[ls+4]<<(64-bs)

	return u256.New(v0|w0, v1|w1, v2|w2, v3|w3)
}

// maskToCombination extracts the set bit positions of mask in ascending
// order into c.
func maskToCombination(mask u256.Uint256, c []int) {
	idx := 0
	for idx < len(c) {
		tz := mask.TrailingZeros()
		c[idx] = tz
		idx++
		mask = mask.SetBit(tz, 0)
	}
}
