package combin

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {10, 3, 120},
		{256, 0, 1}, {256, 1, 256}, {256, 2, 32640},
		{5, 6, 0}, {5, -1, 0}, {-1, 0, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("Binomial(%d,%d) = %v, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetryAndPascal(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for k := 0; k <= n; k++ {
			if Binomial(n, k).Cmp(Binomial(n, n-k)) != 0 {
				t.Fatalf("symmetry fails at C(%d,%d)", n, k)
			}
			sum := new(big.Int).Add(Binomial(n-1, k-1), Binomial(n-1, k))
			if Binomial(n, k).Cmp(sum) != 0 {
				t.Fatalf("Pascal fails at C(%d,%d)", n, k)
			}
		}
	}
}

func TestBinomial64(t *testing.T) {
	v, ok := Binomial64(256, 5)
	if !ok || v != 8809549056 {
		t.Errorf("Binomial64(256,5) = %d, %v", v, ok)
	}
	// C(256,128) is astronomically larger than 2^64.
	if _, ok := Binomial64(256, 128); ok {
		t.Error("Binomial64(256,128) should overflow")
	}
}

// TestBinomial64MatchesBig pins the lock-free uint64 product to
// big.Int.Binomial on every C(n, k) with n <= 300, so both sides of
// the fits/overflows boundary of every row are checked.
func TestBinomial64MatchesBig(t *testing.T) {
	boundaries := 0
	for n := 0; n <= 300; n++ {
		prevFits := true
		for k := 0; k <= n; k++ {
			want := new(big.Int).Binomial(int64(n), int64(k))
			got, ok := Binomial64(n, k)
			if ok != want.IsUint64() {
				t.Fatalf("Binomial64(%d,%d) fits=%v, big.Int says %v (%v)", n, k, ok, want.IsUint64(), want)
			}
			if ok && got != want.Uint64() {
				t.Fatalf("Binomial64(%d,%d) = %d, want %v", n, k, got, want)
			}
			if ok != prevFits {
				boundaries++
			}
			prevFits = ok
		}
	}
	// Every row from n = 68 on crosses 2^64 twice (up and back down).
	if boundaries < 2*(300-68) {
		t.Fatalf("only %d fits/overflows boundaries crossed", boundaries)
	}
	for _, c := range [][2]int{{5, -1}, {5, 6}, {-1, 0}} {
		if v, ok := Binomial64(c[0], c[1]); v != 0 || !ok {
			t.Errorf("Binomial64(%d,%d) = %d, %v; want 0, true", c[0], c[1], v, ok)
		}
	}
}

// TestTable1 reproduces Table 1 of the paper: seeds searched for the
// exhaustive (Equation 1) and average (Equation 3) cases at d = 1..5.
func TestTable1(t *testing.T) {
	// Paper values are given to 2 significant figures.
	exhaustive := []float64{256, 3.3e4, 2.8e6, 1.8e8, 9.0e9}
	average := []float64{129, 1.7e4, 1.4e6, 9.0e7, 4.6e9}
	for d := 1; d <= 5; d++ {
		gotE, _ := new(big.Float).SetInt(ExhaustiveSeeds(SeedBits, d)).Float64()
		gotA, _ := new(big.Float).SetInt(AverageSeeds(SeedBits, d)).Float64()
		// d=1 exhaustive includes the d=0 seed: 257 ~ paper's 256.
		if rel(gotE, exhaustive[d-1]) > 0.05 {
			t.Errorf("d=%d exhaustive = %.3g, paper %.3g", d, gotE, exhaustive[d-1])
		}
		if rel(gotA, average[d-1]) > 0.05 {
			t.Errorf("d=%d average = %.3g, paper %.3g", d, gotA, average[d-1])
		}
	}
}

func rel(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func TestExhaustiveSeedsExact(t *testing.T) {
	// u(2) = 1 + 256 + 32640 = 32897.
	if got := ExhaustiveSeeds(256, 2); got.Cmp(big.NewInt(32897)) != 0 {
		t.Errorf("u(2) = %v", got)
	}
	// a(2) = 1 + 256 + 32640/2 = 16577.
	if got := AverageSeeds(256, 2); got.Cmp(big.NewInt(16577)) != 0 {
		t.Errorf("a(2) = %v", got)
	}
	if got := AverageSeeds(256, 0); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("a(0) = %v", got)
	}
}

func TestOpponentSeeds(t *testing.T) {
	want := new(big.Int).Lsh(big.NewInt(1), 256)
	if got := OpponentSeeds(256); got.Cmp(want) != 0 {
		t.Errorf("OpponentSeeds(256) = %v", got)
	}
}

func TestRankUnrankRoundTripExhaustive(t *testing.T) {
	// Exhaustively verify over a small space: all 3-subsets of [0,8).
	n, k := 8, 3
	total, _ := Binomial64(n, k)
	prev := make([]int, k)
	for r := uint64(0); r < total; r++ {
		c := make([]int, k)
		if err := UnrankLex(n, r, c); err != nil {
			t.Fatal(err)
		}
		got, err := RankLex(n, c)
		if err != nil || got != r {
			t.Fatalf("RankLex(UnrankLex(%d)) = %d, %v", r, got, err)
		}
		if r > 0 && !lexLess(prev, c) {
			t.Fatalf("not lexicographic: %v then %v", prev, c)
		}
		copy(prev, c)
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestRankUnrankRandom256(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for k := 1; k <= 8; k++ {
		total, ok := Binomial64(256, k)
		if !ok {
			t.Fatalf("C(256,%d) overflow", k)
		}
		for trial := 0; trial < 200; trial++ {
			rank := r.Uint64() % total
			c := make([]int, k)
			if err := UnrankLex(256, rank, c); err != nil {
				t.Fatal(err)
			}
			got, err := RankLex(256, c)
			if err != nil || got != rank {
				t.Fatalf("k=%d rank %d -> %v -> %d (%v)", k, rank, c, got, err)
			}
		}
	}
}

func TestUnrankErrors(t *testing.T) {
	if err := UnrankLex(8, 56, make([]int, 3)); err == nil {
		t.Error("expected out-of-range error for rank = C(8,3)")
	}
	if err := UnrankLex(4, 0, make([]int, 5)); err == nil {
		t.Error("expected error for k > n")
	}
	if err := UnrankLex(256, 0, make([]int, 128)); err == nil {
		t.Error("expected overflow error for C(256,128)")
	}
}

func TestRankErrors(t *testing.T) {
	if _, err := RankLex(8, []int{3, 3}); err == nil {
		t.Error("expected error for repeated positions")
	}
	if _, err := RankLex(8, []int{5, 8}); err == nil {
		t.Error("expected error for out-of-range position")
	}
	if _, err := RankLex(8, []int{5, 2}); err == nil {
		t.Error("expected error for decreasing positions")
	}
}

func TestUnrankFirstAndLast(t *testing.T) {
	c := make([]int, 5)
	if err := UnrankLex(256, 0, c); err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if v != i {
			t.Fatalf("rank 0 = %v, want identity prefix", c)
		}
	}
	total, _ := Binomial64(256, 5)
	if err := UnrankLex(256, total-1, c); err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if v != 256-5+i {
			t.Fatalf("last rank = %v, want top positions", c)
		}
	}
}

func BenchmarkUnrankLex256of5(b *testing.B) {
	total, _ := Binomial64(256, 5)
	c := make([]int, 5)
	for i := 0; i < b.N; i++ {
		_ = UnrankLex(256, uint64(i)%total, c)
	}
}
