package bitslice

// Associative matching over bit-sliced digests. On the GSI Gemini a
// search-and-mark compares one bit column of every record against a key
// bit and ANDs the result into a marker register (paper §3.3); this is
// the exact software transpose, with the Width256 instances packed in
// four machine words instead of spread across bit processors.
//
// The AND-reduction short-circuits: after z compared bit columns the
// accumulator has an expected Width256/2^z surviving instances, so a
// batch with no match dies after ~log2(Width256) columns and the compare
// cost is negligible next to the hash. It is a host-side matcher
// primitive, not modelled APU compute, so no gates are counted.

// MatchSliced256 compares Width256 wide bit-sliced 64-bit lanes against
// target lanes, returning four mask words with bit i%64 of word i/64 set
// iff instance i equals every target lane. len(lanes) must equal
// len(target).
func MatchSliced256(lanes []Slice256, target []uint64) [4]uint64 {
	acc := [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	for l := range lanes {
		tl := target[l]
		for z := 0; z < 64; z++ {
			col := lanes[l][z*4 : z*4+4]
			if tl>>uint(z)&1 == 1 {
				acc[0] &= col[0]
				acc[1] &= col[1]
				acc[2] &= col[2]
				acc[3] &= col[3]
			} else {
				acc[0] &^= col[0]
				acc[1] &^= col[1]
				acc[2] &^= col[2]
				acc[3] &^= col[3]
			}
			if acc[0]|acc[1]|acc[2]|acc[3] == 0 {
				return acc
			}
		}
	}
	return acc
}
