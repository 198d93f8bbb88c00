// Package combin provides the combinatorics underlying the RBC search:
// exact binomial coefficients, the search-complexity equations from the
// paper (Equations 1-3), and lexicographic ranking/unranking of
// combinations, which is the mathematical core of Algorithm 515
// (Buckles-Lybanon) seed iteration.
package combin

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// SeedBits is the PUF response width assumed throughout the paper.
const SeedBits = 256

// binomial coefficients are memoized: the search engines ask for the same
// C(256, d) values on every authentication.
var (
	binomMu    sync.Mutex
	binomCache = map[[2]int]*big.Int{}
)

// Binomial returns C(n, k) exactly. It returns 0 for k < 0 or k > n.
// The returned value must not be modified by the caller.
func Binomial(n, k int) *big.Int {
	if k < 0 || k > n || n < 0 {
		return big.NewInt(0)
	}
	if k > n-k {
		k = n - k
	}
	key := [2]int{n, k}
	binomMu.Lock()
	defer binomMu.Unlock()
	if v, ok := binomCache[key]; ok {
		return v
	}
	v := new(big.Int).Binomial(int64(n), int64(k))
	binomCache[key] = v
	return v
}

// Binomial64 returns C(n, k) as a uint64 and reports whether it fits.
// For n = 256 this holds for all k <= 10, which covers every Hamming
// distance the protocol searches in practice. Like Binomial it returns
// 0 for k < 0 or k > n. It takes no lock and allocates nothing: every
// iterator construction calls it about 2n times, from every worker.
//
// The product runs as C(m+i, i) = C(m+i-1, i-1) * (m+i) / i for
// i = 1..k with m = n-k, each step exact. The sequence never decreases,
// so a step whose 128-bit product divided by i does not fit 64 bits
// means the result does not either.
func Binomial64(n, k int) (uint64, bool) {
	if k < 0 || k > n || n < 0 {
		return 0, true
	}
	k = min(k, n-k)
	m := uint64(n - k)
	v := uint64(1)
	for i := uint64(1); i <= uint64(k); i++ {
		hi, lo := bits.Mul64(v, m+i)
		if hi >= i {
			return 0, false
		}
		v, _ = bits.Div64(hi, lo, i)
	}
	return v, true
}

// ExhaustiveSeeds returns u(d) from Equation 1: the total number of seeds
// the server searches in the worst case when scanning all Hamming
// distances 0..d around the enrolled image, for n-bit seeds.
func ExhaustiveSeeds(n, d int) *big.Int {
	total := new(big.Int)
	for i := 0; i <= d; i++ {
		total.Add(total, Binomial(n, i))
	}
	return total
}

// AverageSeeds returns a(d) from Equation 3: the expected number of seeds
// searched when the client's seed lies at Hamming distance exactly d, so
// that on average the match is found halfway through the distance-d shell.
func AverageSeeds(n, d int) *big.Int {
	if d <= 0 {
		return big.NewInt(1)
	}
	total := ExhaustiveSeeds(n, d-1)
	half := new(big.Int).Rsh(Binomial(n, d), 1)
	return total.Add(total, half)
}

// OpponentSeeds returns p from Equation 2: the size of the space an
// opponent without the PUF image must search, 2^n.
func OpponentSeeds(n int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(n))
}

// RankLex returns the 0-based lexicographic rank of the combination c,
// which must hold strictly increasing positions in [0, n). Combinations
// are ordered lexicographically as ascending tuples, the order produced
// by Algorithm 515.
func RankLex(n int, c []int) (uint64, error) {
	k := len(c)
	if err := validate(n, c); err != nil {
		return 0, err
	}
	rank := uint64(0)
	prev := -1
	for i, ci := range c {
		for j := prev + 1; j < ci; j++ {
			v, ok := Binomial64(n-1-j, k-1-i)
			if !ok {
				return 0, fmt.Errorf("combin: rank overflows uint64 for n=%d k=%d", n, k)
			}
			rank += v
		}
		prev = ci
	}
	return rank, nil
}

// UnrankLex writes into c the combination with the given 0-based
// lexicographic rank among all k-subsets of [0, n), where k = len(c).
// It is the inverse of RankLex and the random-access primitive that makes
// Algorithm 515 embarrassingly parallel: any thread can jump directly to
// its share of the combination sequence.
func UnrankLex(n int, rank uint64, c []int) error {
	k := len(c)
	if k < 0 || k > n {
		return fmt.Errorf("combin: invalid k=%d for n=%d", k, n)
	}
	total, ok := Binomial64(n, k)
	if !ok {
		return fmt.Errorf("combin: C(%d,%d) overflows uint64", n, k)
	}
	if rank >= total {
		return fmt.Errorf("combin: rank %d out of range [0,%d)", rank, total)
	}
	pos := 0
	for i := 0; i < k; i++ {
		for {
			v, _ := Binomial64(n-1-pos, k-1-i)
			if rank < v {
				break
			}
			rank -= v
			pos++
		}
		c[i] = pos
		pos++
	}
	return nil
}

func validate(n int, c []int) error {
	prev := -1
	for _, ci := range c {
		if ci <= prev || ci >= n {
			return fmt.Errorf("combin: combination %v not strictly increasing in [0,%d)", c, n)
		}
		prev = ci
	}
	return nil
}
