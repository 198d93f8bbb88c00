package iterseq

import (
	"fmt"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/u256"
)

// grayIter enumerates k-combinations in revolving-door Gray-code order:
// successive combinations differ by exactly one element removed and one
// added (two seed bits flipped). This fills the paper's "Chase Algorithm
// 382" slot: a non-recursive minimal-change sequence with tiny per-thread
// state. Unlike Chase's formulation, the revolving-door order has a cheap
// exact ranking, so parallel threads seek directly to their subrange
// instead of loading checkpoint states precomputed by a full enumeration
// (the paper's approach, which it excludes from timing; EnumerateStates
// reproduces it for comparison).
//
// The order R(m, j) over {0..m-1} is defined by the classic recursion
// R(m, j) = R(m-1, j) ++ reverse(R(m-1, j-1)) x {m-1}, with
// first(R(m, j)) = {0..j-1} and last(R(m, j)) = {0..j-2, m-1}. It is
// the order Knuth's Algorithm R (TAOCP 7.2.1.3) visits, which step
// implements.
type grayIter struct {
	k int
	// c[:k] is the combination Next or FillMasks hands out next; c[k]
	// is the sentinel n that Algorithm R compares the top element with.
	c         []int
	mask      [4]uint64 // flip mask of c[:k], 64 bits per limb
	maskStale bool      // c moved without mask upkeep; rebuild on demand
	remaining int64
}

func newGray(n, k int, startRank uint64, count int64) (*grayIter, error) {
	it := &grayIter{k: k, c: make([]int, k+1), maskStale: true, remaining: count}
	it.c[k] = n
	if count == 0 {
		return it, nil
	}
	if err := GrayUnrank(n, startRank, it.c[:k]); err != nil {
		return nil, err
	}
	return it, nil
}

// step advances c to its revolving-door successor and returns the
// element it removed and the one it added. This is Knuth's Algorithm R:
// the easy case, which all but about one step in c[1]-c[0] takes, moves
// c[0] by one (down for even k, up for odd k; for k = 1 it is a plain
// increment); carry handles the rest in amortised O(1).
func (it *grayIter) step() (out, in int) {
	c := it.c
	if it.k&1 == 0 {
		if c[0] > 0 {
			c[0]--
			return c[0] + 1, c[0]
		}
	} else if c[0]+1 < c[1] {
		c[0]++
		return c[0] - 1, c[0]
	}
	return it.carry()
}

// carry is Algorithm R's steps R4 and R5, alternating from index 1 up:
// R4 (entered first for odd k) moves the adjacent pair c[i-1], c[i] =
// c[i-1]+1 down to i-1, c[i-1]; R5 (first for even k) moves i-1, c[i]
// up to c[i], c[i]+1. Each swaps exactly one element.
func (it *grayIter) carry() (out, in int) {
	c, k := it.c, it.k
	decrease := k&1 == 1
	for i := 1; i < k; i++ {
		if decrease {
			if c[i] > i {
				out, in = c[i], i-1
				c[i], c[i-1] = c[i-1], i-1
				return out, in
			}
		} else if c[i]+1 < c[i+1] {
			out = c[i-1]
			c[i-1] = c[i]
			c[i]++
			return out, c[i]
		}
		decrease = !decrease
	}
	// The range length was validated at construction, so running off
	// the sequence is a bug, not an input error.
	panic("iterseq: gray successor exhausted before range end")
}

// Next deliberately skips the mask upkeep: position-list callers (and
// the host-cost calibration that prices this method for the simulators)
// must pay exactly the successor cost, nothing more. The mask is marked
// stale and rebuilt only if the caller later switches to FillMasks.
func (it *grayIter) Next(c []int) bool {
	if it.remaining <= 0 {
		return false
	}
	it.remaining--
	copy(c, it.c[:it.k])
	if it.remaining > 0 {
		it.step()
		it.maskStale = true
	}
	return true
}

// FillMasks implements MaskIter. Each step's swap is two bit flips on
// the running mask, whatever k is.
func (it *grayIter) FillMasks(dst []u256.Uint256) int {
	n := int(min(int64(len(dst)), it.remaining))
	if n == 0 {
		return 0
	}
	if it.maskStale {
		m := maskOf(it.c[:it.k])
		it.mask = [4]uint64{m.Limb(0), m.Limb(1), m.Limb(2), m.Limb(3)}
		it.maskStale = false
	}
	it.remaining -= int64(n)
	steps := n
	if it.remaining == 0 {
		steps-- // the range's last combination may have no successor
	}
	m := it.mask
	for i := 0; i < steps; i++ {
		dst[i] = u256.New(m[0], m[1], m[2], m[3])
		out, in := it.step()
		m[uint(out)>>6&3] ^= 1 << (uint(out) & 63)
		m[uint(in)>>6&3] ^= 1 << (uint(in) & 63)
	}
	if steps < n {
		dst[steps] = u256.New(m[0], m[1], m[2], m[3])
	}
	it.mask = m
	return n
}

// GrayRank returns the 0-based rank of combination c (strictly increasing
// positions in [0, n)) in revolving-door order. Each selected maximum
// element flips the orientation of the remaining subsequence, hence the
// alternating sign.
func GrayRank(n int, c []int) (uint64, error) {
	if len(c) > 0 && (c[len(c)-1] >= n || c[0] < 0) {
		return 0, fmt.Errorf("iterseq: combination %v out of range [0,%d)", c, n)
	}
	acc := int64(0)
	sign := int64(1)
	for j := len(c); j > 0; j-- {
		top := c[j-1]
		cj, ok1 := combin.Binomial64(top, j)
		cj1, ok2 := combin.Binomial64(top, j-1)
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("iterseq: gray rank overflows uint64")
		}
		acc += sign * (int64(cj) + int64(cj1) - 1)
		sign = -sign
	}
	if acc < 0 {
		return 0, fmt.Errorf("iterseq: invalid combination %v", c)
	}
	return uint64(acc), nil
}

// GrayUnrank writes into c the combination at the given rank in
// revolving-door order over k-subsets of [0, n), k = len(c).
func GrayUnrank(n int, rank uint64, c []int) error {
	k := len(c)
	total, ok := combin.Binomial64(n, k)
	if !ok {
		return fmt.Errorf("iterseq: C(%d,%d) overflows uint64", n, k)
	}
	if rank >= total {
		return fmt.Errorf("iterseq: rank %d out of range [0,%d)", rank, total)
	}
	r := rank
	j := k
	for m := n; j > 0; m-- {
		cm1j, _ := combin.Binomial64(m-1, j)
		if r >= cm1j {
			cm1j1, _ := combin.Binomial64(m-1, j-1)
			c[j-1] = m - 1
			// Entering the reversed second part: re-express r in the
			// forward orientation of R(m-1, j-1).
			r = cm1j + cm1j1 - 1 - r
			j--
		}
	}
	return nil
}

// EnumerateStates reproduces the paper's checkpointing strategy for
// sequential iterators: walk the Gray sequence once and record the
// combination at the start of each of parts equal shares (nil for the
// empty shares of more parts than combinations). The paper performs
// this offline and excludes it from timing; with GrayUnrank available it
// exists mainly to cross-validate the ranking.
func EnumerateStates(n, k, parts int) ([][]int, error) {
	ranges, err := Partition(n, k, parts)
	if err != nil {
		return nil, err
	}
	it, err := New(GrayCode, n, k, 0, -1)
	if err != nil {
		return nil, err
	}
	out := make([][]int, parts)
	cur := make([]int, k)
	rank := uint64(0)
	for i, r := range ranges {
		if r.Count == 0 {
			continue
		}
		for ; rank <= r.Start; rank++ {
			it.Next(cur)
		}
		out[i] = append([]int(nil), cur...)
	}
	return out, nil
}
