package iterseq

import (
	"rbcsalted/internal/combin"
	"rbcsalted/internal/u256"
)

// mifsudIter is the lexicographic-successor iterator in the style of ACM
// Algorithm 154 (Mifsud, 1963): find the rightmost position that can
// advance, increment it, and reset the tail to the minimal run. This is
// the historical baseline the paper's related work begins from; the
// transition is amortized O(1) but can touch up to k positions.
type mifsudIter struct {
	n, k      int
	cur       []int
	mask      u256.Uint256
	maskStale bool // cur advanced without mask upkeep; rebuild on demand
	remaining int64
}

func newMifsud(n, k int, startRank uint64, count int64) (*mifsudIter, error) {
	it := &mifsudIter{n: n, k: k, cur: make([]int, k), remaining: count}
	if count == 0 {
		return it, nil
	}
	if err := combin.UnrankLex(n, startRank, it.cur); err != nil {
		return nil, err
	}
	if n <= 256 {
		it.mask = maskOf(it.cur)
	}
	return it, nil
}

// Next deliberately leaves the mask stale: position-list callers (and
// the host-cost calibration that prices this method for the simulators)
// must pay exactly the successor cost; the mask is rebuilt on demand if
// the caller later switches to FillMasks.
func (it *mifsudIter) Next(c []int) bool {
	if it.remaining <= 0 {
		return false
	}
	it.remaining--
	copy(c, it.cur)
	if it.remaining > 0 {
		it.advance(false)
		it.maskStale = true
	}
	return true
}

// FillMasks implements MaskIter. The mask follows the successor's delta:
// the flips mirror exactly the positions advance rewrites, so the
// amortized-O(1) transition carries over to the mask form.
func (it *mifsudIter) FillMasks(dst []u256.Uint256) int {
	n := int(min(int64(len(dst)), it.remaining))
	if n == 0 {
		return 0
	}
	if it.maskStale {
		it.mask = maskOf(it.cur)
		it.maskStale = false
	}
	for i := 0; i < n; i++ {
		dst[i] = it.mask
		it.remaining--
		if it.remaining > 0 {
			it.advance(it.n <= 256)
		}
	}
	return n
}

func (it *mifsudIter) advance(trackMask bool) {
	k := it.k
	// Rightmost position that can move up: cur[i] < limit(i).
	for i := k - 1; i >= 0; i-- {
		limit := it.n - (k - i) // highest value position i may take
		if it.cur[i] < limit {
			if trackMask {
				// Accumulate every flip in a local delta and apply it
				// with one Xor: this runs once per candidate in the
				// batched host fill loop, where chained by-value FlipBit
				// calls (a 32-byte copy in and out each) showed up in
				// profiles.
				var delta [4]uint64
				p := it.cur[i]
				delta[uint(p)>>6] ^= 1 << (uint(p) & 63)
				it.cur[i]++
				p = it.cur[i]
				delta[uint(p)>>6] ^= 1 << (uint(p) & 63)
				for j := i + 1; j < k; j++ {
					if q := it.cur[j]; q != it.cur[j-1]+1 {
						p = it.cur[j-1] + 1
						delta[uint(q)>>6] ^= 1 << (uint(q) & 63)
						delta[uint(p)>>6] ^= 1 << (uint(p) & 63)
					}
					it.cur[j] = it.cur[j-1] + 1
				}
				it.mask = it.mask.Xor(u256.New(delta[0], delta[1], delta[2], delta[3]))
			} else {
				it.cur[i]++
				for j := i + 1; j < k; j++ {
					it.cur[j] = it.cur[j-1] + 1
				}
			}
			return
		}
	}
}
