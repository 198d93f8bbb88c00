package iterseq

import (
	"sync"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/u256"
)

// lex515Iter implements ACM Algorithm 515 (Buckles-Lybanon): every
// combination is generated independently from its lexicographic index via
// a binomial-coefficient lookup table. There is no carried state between
// combinations, which is why the method parallelizes perfectly - and why
// it does the most work per seed, re-deriving each combination from
// scratch.
type lex515Iter struct {
	n, k      int
	rank      uint64
	remaining int64
	table     *binomTable
	scratch   []int // combination buffer for the mask form
}

func newLex515(n, k int, startRank uint64, count int64) (*lex515Iter, error) {
	return &lex515Iter{
		n:         n,
		k:         k,
		rank:      startRank,
		remaining: count,
		table:     binomTableFor(n, k),
		scratch:   make([]int, k),
	}, nil
}

func (it *lex515Iter) Next(c []int) bool {
	if it.remaining <= 0 {
		return false
	}
	it.remaining--
	it.table.unrankLex(it.rank, c)
	it.rank++
	return true
}

// FillMasks implements MaskIter. Algorithm 515 has no carried state, so
// unlike the minimal-change iterators the mask is rebuilt from the rank
// every step - the method keeps its random-access work profile in mask
// form too.
func (it *lex515Iter) FillMasks(dst []u256.Uint256) int {
	n := int(min(int64(len(dst)), it.remaining))
	for i := range dst[:n] {
		it.table.unrankLex(it.rank, it.scratch)
		it.rank++
		dst[i] = maskOf(it.scratch)
	}
	it.remaining -= int64(n)
	return n
}

// binomTable is the precomputed C(n', k') lookup shared by all Algorithm
// 515 iterators for a given (n, k) - the paper's "lookup table exploiting
// high memory bandwidth". It is immutable after construction.
type binomTable struct {
	n, k int
	// c[i][j] = C(i, j) for i <= n, j <= k.
	c [][]uint64
}

var (
	tablesMu    sync.Mutex
	binomTables = map[[2]int]*binomTable{}
)

func binomTableFor(n, k int) *binomTable {
	// The table is tiny (n*k uint64s); build eagerly, cache per shape.
	key := [2]int{n, k}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if t, ok := binomTables[key]; ok {
		return t
	}
	t := &binomTable{n: n, k: k, c: make([][]uint64, n+1)}
	for i := 0; i <= n; i++ {
		t.c[i] = make([]uint64, k+1)
		t.c[i][0] = 1
		for j := 1; j <= k && j <= i; j++ {
			v, ok := combin.Binomial64(i, j)
			if !ok {
				v = ^uint64(0) // saturate; unreachable for k <= 10, n = 256
			}
			t.c[i][j] = v
		}
	}
	binomTables[key] = t
	return t
}

// unrankLex writes the combination at the given lexicographic rank into c.
// This is the Algorithm 515 inner loop: scan positions left to right,
// subtracting block sizes C(n-1-pos, k-1-i) until the rank falls inside
// the current block. It stays out of line: inlined into FillMasks' loop
// its scan loses registers to the batch around it and runs ~8 % slower.
//
//go:noinline
func (t *binomTable) unrankLex(rank uint64, c []int) {
	pos := 0
	k := len(c)
	for i := 0; i < k; i++ {
		for {
			remaining := t.n - 1 - pos
			need := k - 1 - i
			var v uint64
			if remaining >= need {
				v = t.c[remaining][need]
			}
			if rank < v {
				break
			}
			rank -= v
			pos++
		}
		c[i] = pos
		pos++
	}
}
