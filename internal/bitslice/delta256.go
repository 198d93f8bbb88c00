package bitslice

import "math/bits"

// Sliced-domain delta iteration (DESIGN.md §11). Standing a batch up in
// sliced form costs limb extraction plus four 64×64 butterfly
// transposes (Pack256) before a single Keccak round runs. But in the
// flat Slice256 layout a single seed bit of a single lane is one bit of
// one word at a computable offset — so once a batch is resident in
// sliced form, advancing lane i from one candidate to the next is just
// XORing the (sparse) difference of their flip masks into those words,
// bit by bit. The transpose is paid once per search and amortized to
// near zero.
//
// The coordinate math: candidate seeds enter the wide SHA-3 kernel as
// four 64-bit message lanes, little-endian over the 32-byte big-endian
// seed (lane l = bytes 8l..8l+7). Seed bit p in u256 numbering (bit 0 =
// least significant of limb 0) lives in limb j = p/64, so in message
// lane l = 3 - j; within the lane the byte order reverses, so bit
// b = p%64 (byte B = b/8, bit-in-byte r = b%8) lands at
// z = (7-B)*8 + r. In a Slice256, bit z of lane instance i is bit i%64
// of word z*4 + i/64 — the single word one FlipBit touches.

// FlipBit flips bit z of instance i: one XOR into word z*4 + i/64. It
// is the primitive the delta-advance path is built from.
func (s *Slice256) FlipBit(i, z int) {
	s[z<<2|i>>6] ^= 1 << (uint(i) & 63)
}

// seedBitZ maps bit b of a message-lane value (b = seed bit % 64) to
// its bit index within the lane as hashed: the lane is the byte-reversed
// limb, so the byte index flips while the bit-in-byte survives.
func seedBitZ(b uint) uint {
	return (7-b>>3)<<3 | b&7
}

// DeltaFill XORs a sparse 256-bit seed-domain delta into instance i of
// the resident message lanes: for every set bit p of the delta (limb j
// carries seed bits 64j..64j+63, little-endian — u256 limb order), the
// single word holding bit p's column of instance i is flipped. Cost is
// one trailing-zeros scan plus one XOR per set delta bit, independent of
// batch width — for candidates k bit-flips from a common base the delta
// between any two has at most 2k set bits, so advancing a whole
// 256-lane batch costs O(k) word ops per lane where Pack256 pays four
// full 64×64 transposes regardless of k.
func DeltaFill(msg *[4]Slice256, i int, d0, d1, d2, d3 uint64) {
	w := i >> 6
	bit := uint64(1) << (uint(i) & 63)
	for limb, dv := range [4]uint64{d0, d1, d2, d3} {
		lane := &msg[3-limb]
		for dv != 0 {
			b := uint(bits.TrailingZeros64(dv))
			dv &= dv - 1
			lane[seedBitZ(b)<<2|uint(w)] ^= bit
		}
	}
}

// PackSeedVals256 marshals the four 64-bit message lanes of Width256
// candidates (vals[l][i] = lane l of candidate i, little-endian as
// hashed) into resident sliced form — the pack-once step that primes a
// delta chain. It is exactly the marshalling SHA3Seeds256WideSliced
// performs internally, exposed so callers can keep the packed lanes and
// advance them with DeltaFill instead of re-packing every batch.
func PackSeedVals256(msg *[4]Slice256, vals *[4][Width256]uint64) {
	for lane := 0; lane < 4; lane++ {
		msg[lane] = Pack256(&vals[lane])
	}
}
