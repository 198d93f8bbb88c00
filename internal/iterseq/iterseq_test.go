package iterseq

import (
	"fmt"
	"slices"
	"testing"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/u256"
)

// collect drains an iterator into a list of combination keys.
func collect(t *testing.T, it Iter, k int) []string {
	t.Helper()
	var out []string
	c := make([]int, k)
	for it.Next(c) {
		prev := -1
		for _, v := range c {
			if v <= prev {
				t.Fatalf("combination %v not strictly increasing", c)
			}
			prev = v
		}
		out = append(out, fmt.Sprint(c))
	}
	return out
}

// TestAllMethodsEnumerateExactly verifies, for every method and a sweep of
// small (n, k), that the full sequence visits every k-subset exactly once.
func TestAllMethodsEnumerateExactly(t *testing.T) {
	for _, method := range Methods() {
		for n := 1; n <= 10; n++ {
			for k := 1; k <= n; k++ {
				it, err := New(method, n, k, 0, -1)
				if err != nil {
					t.Fatalf("%v n=%d k=%d: %v", method, n, k, err)
				}
				seen := map[string]bool{}
				for _, key := range collect(t, it, k) {
					if seen[key] {
						t.Fatalf("%v n=%d k=%d: repeated %s", method, n, k, key)
					}
					seen[key] = true
				}
				total, _ := combin.Binomial64(n, k)
				if uint64(len(seen)) != total {
					t.Fatalf("%v n=%d k=%d: %d combinations, want %d",
						method, n, k, len(seen), total)
				}
			}
		}
	}
}

// TestPartitionedRangesCoverSequence verifies the property the parallel
// search depends on: splitting [0, C(n,k)) into ranges and running one
// iterator per range reproduces the full sequence in order.
func TestPartitionedRangesCoverSequence(t *testing.T) {
	n, k, parts := 12, 4, 7
	for _, method := range Methods() {
		whole, err := New(method, n, k, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		want := collect(t, whole, k)

		ranges, err := Partition(n, k, parts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range ranges {
			it, err := New(method, n, k, r.Start, int64(r.Count))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, collect(t, it, k)...)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: partitioned total %d, want %d", method, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: position %d: %s != %s", method, i, got[i], want[i])
			}
		}
	}
}

// TestGrayMinimalChange verifies the revolving-door property: successive
// combinations differ by exactly one element out and one element in
// (Hamming distance 2 between masks).
func TestGrayMinimalChange(t *testing.T) {
	for n := 2; n <= 11; n++ {
		for k := 1; k < n; k++ {
			it, _ := New(GrayCode, n, k, 0, -1)
			c := make([]int, k)
			var prev u256.Uint256
			first := true
			for it.Next(c) {
				mask := ApplySeed(u256.Zero, c)
				if !first {
					if d := mask.HammingDistance(prev); d != 2 {
						t.Fatalf("n=%d k=%d: step changed %d bits, want 2", n, k, d)
					}
				}
				first = false
				prev = mask
			}
		}
	}
}

func TestGrayRankUnrankRoundTrip(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 1; k <= n; k++ {
			total, _ := combin.Binomial64(n, k)
			c := make([]int, k)
			for r := uint64(0); r < total; r++ {
				if err := GrayUnrank(n, r, c); err != nil {
					t.Fatal(err)
				}
				got, err := GrayRank(n, c)
				if err != nil || got != r {
					t.Fatalf("n=%d k=%d: rank(unrank(%d)) = %d, %v", n, k, r, got, err)
				}
			}
		}
	}
}

// checkGrayStep steps a Gray iterator positioned at rank and checks the
// step against GrayUnrank(rank+1), written into want (len k): the new
// combination, and the reported (removed, added) pair as the set
// difference of the two.
func checkGrayStep(t *testing.T, it *grayIter, n int, rank uint64, want []int) {
	t.Helper()
	k := it.k
	before := maskOf(it.c[:k])
	out, in := it.step()
	if err := GrayUnrank(n, rank+1, want); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(it.c[:k], want) {
		t.Fatalf("n=%d k=%d rank %d: step gave %v, unrank(rank+1) %v", n, k, rank, it.c[:k], want)
	}
	after := maskOf(want)
	if before.Bit(out) != 1 || after.Bit(out) != 0 || before.Bit(in) != 0 || after.Bit(in) != 1 ||
		before.Xor(after).OnesCount() != 2 {
		t.Fatalf("n=%d k=%d rank %d: step reported (-%d, +%d), sets differ by %v", n, k, rank, out, in, before.Xor(after))
	}
}

// checkFillMatchesNext checks FillMasks, at several batch widths, against
// masks built from Next over the same range.
func checkFillMatchesNext(t *testing.T, method Method, n, k int, start uint64, count int64) {
	t.Helper()
	for _, width := range []int{1, 7, 64} {
		ref, err := New(method, n, k, start, count)
		if err != nil {
			t.Fatalf("%v n=%d k=%d start=%d: %v", method, n, k, start, err)
		}
		mi, _ := New(method, n, k, start, count)
		c := make([]int, k)
		dst := make([]u256.Uint256, width)
		got, i := 0, 0
		for ref.Next(c) {
			if i == got {
				got, i = mi.FillMasks(dst), 0
				if got == 0 {
					t.Fatalf("%v n=%d k=%d start=%d width=%d: FillMasks exhausted early", method, n, k, start, width)
				}
			}
			if !dst[i].Equal(maskOf(c)) {
				t.Fatalf("%v n=%d k=%d start=%d width=%d: mask %v, Next gave %v", method, n, k, start, width, dst[i], c)
			}
			i++
		}
		if i != got || mi.FillMasks(dst) != 0 {
			t.Fatalf("%v n=%d k=%d start=%d width=%d: FillMasks ran past Next's end", method, n, k, start, width)
		}
	}
}

// TestGrayStepExhaustive pins the revolving-door step at full width: for
// k = 1, 2, 3 over n = 256, a step from every rank lands on
// GrayUnrank(rank+1) and reports the swap it made, and the batch fill
// agrees with Next from several start ranks.
func TestGrayStepExhaustive(t *testing.T) {
	const n = 256
	for k := 1; k <= 3; k++ {
		total, _ := combin.Binomial64(n, k)
		it, err := newGray(n, k, 0, int64(total))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, k)
		for r := uint64(0); r+1 < total; r++ {
			checkGrayStep(t, it, n, r, want)
		}
		for _, start := range []uint64{0, 1, 63, total / 2, total - 70} {
			checkFillMatchesNext(t, GrayCode, n, k, start, 200)
		}
	}
}

// FuzzGrayStep checks the same properties at random shapes and ranks.
func FuzzGrayStep(f *testing.F) {
	f.Add(uint8(10), uint8(4), uint64(17))
	f.Add(uint8(64), uint8(2), uint64(2015))
	f.Add(uint8(33), uint8(33), uint64(0))
	f.Add(uint8(40), uint8(1), uint64(39))
	f.Fuzz(func(t *testing.T, nb, kb uint8, rank uint64) {
		n := 1 + int(nb)%64
		k := int(kb) % (n + 1)
		total, ok := combin.Binomial64(n, k)
		if !ok {
			t.Skip()
		}
		rank %= total
		if rank+1 < total {
			it, err := newGray(n, k, rank, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkGrayStep(t, it, n, rank, make([]int, k))
		}
		checkFillMatchesNext(t, GrayCode, n, k, rank, 150)
	})
}

// TestGraySuccessorMatchesUnrank walks every sequence with n <= 10 by
// the step and checks it against direct unranking at every rank - this
// pins the whole state machine, k = n included.
func TestGraySuccessorMatchesUnrank(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for k := 1; k <= n; k++ {
			total, _ := combin.Binomial64(n, k)
			it, err := newGray(n, k, 0, int64(total))
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int, k)
			for r := uint64(0); r+1 < total; r++ {
				checkGrayStep(t, it, n, r, want)
			}
		}
	}
}

func TestGraySuccessor256(t *testing.T) {
	// Spot-check at full width: step then rank must increment.
	for k := 1; k <= 5; k++ {
		total, _ := combin.Binomial64(256, k)
		for _, r := range []uint64{0, 1, total / 3, total / 2, total - 2} {
			it, err := newGray(256, k, r, 2)
			if err != nil {
				t.Fatal(err)
			}
			it.step()
			got, err := GrayRank(256, it.c[:k])
			if err != nil || got != r+1 {
				t.Fatalf("k=%d: rank after step = %d, want %d (%v)", k, got, r+1, err)
			}
		}
	}
}

func TestEnumerateStatesMatchesUnrank(t *testing.T) {
	n, k, parts := 12, 3, 8
	states, err := EnumerateStates(n, k, parts)
	if err != nil {
		t.Fatal(err)
	}
	ranges, _ := Partition(n, k, parts)
	if len(states) != parts {
		t.Fatalf("got %d states, want %d", len(states), parts)
	}
	want := make([]int, k)
	for i, r := range ranges {
		if r.Count == 0 {
			if states[i] != nil {
				t.Errorf("part %d: expected nil state for empty range", i)
			}
			continue
		}
		if err := GrayUnrank(n, r.Start, want); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(states[i]) != fmt.Sprint(want) {
			t.Errorf("part %d: state %v, unrank %v", i, states[i], want)
		}
	}
}

func TestEnumerateStatesMorePartsThanCombos(t *testing.T) {
	states, err := EnumerateStates(4, 3, 10) // C(4,3) = 4 < 10 parts
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 10 {
		t.Fatalf("got %d states", len(states))
	}
	nonNil := 0
	for _, s := range states {
		if s != nil {
			nonNil++
		}
	}
	if nonNil != 4 {
		t.Errorf("%d non-nil states, want 4", nonNil)
	}
}

func TestApplySeed(t *testing.T) {
	base := u256.FromUint64(0)
	seed := ApplySeed(base, []int{0, 7, 255})
	if seed.OnesCount() != 3 || seed.Bit(0) != 1 || seed.Bit(7) != 1 || seed.Bit(255) != 1 {
		t.Errorf("ApplySeed wrong: %v", seed)
	}
	// Flipping set bits clears them.
	if got := ApplySeed(seed, []int{7}); got.Bit(7) != 0 || got.OnesCount() != 2 {
		t.Errorf("ApplySeed flip-down wrong: %v", got)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(GrayCode, 256, 128, 0, -1); err == nil {
		t.Error("expected overflow error for C(256,128)")
	}
	if _, err := New(GrayCode, 8, 3, 100, -1); err == nil {
		t.Error("expected start-rank error")
	}
	if _, err := New(Method(99), 8, 3, 0, -1); err == nil {
		t.Error("expected unknown-method error")
	}
	if _, err := Partition(8, 3, 0); err == nil {
		t.Error("expected parts error")
	}
}

func TestCountZeroYieldsNothing(t *testing.T) {
	for _, method := range Methods() {
		it, err := New(method, 8, 3, 5, 0)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if it.Next(make([]int, 3)) {
			t.Errorf("%v: Next produced a combination with count 0", method)
		}
	}
}

func TestMethodString(t *testing.T) {
	if GrayCode.String() != "graycode" || Method(99).String() != "Method(99)" {
		t.Error("Method.String wrong")
	}
}

// Per-seed iteration cost benchmarks: these measured ratios feed the GPU
// and APU timing models (Table 4's shape).
func benchMethod(b *testing.B, method Method) {
	total, _ := combin.Binomial64(256, 5)
	c := make([]int, 5)
	it, err := New(method, 256, 5, 0, -1)
	if err != nil {
		b.Fatal(err)
	}
	n := int64(0)
	for i := 0; i < b.N; i++ {
		if !it.Next(c) {
			it, _ = New(method, 256, 5, 0, -1)
			it.Next(c)
		}
		n++
		if uint64(n) == total {
			n = 0
		}
	}
	sinkInt = c[0]
}

var sinkInt int

func BenchmarkIterGray256of5(b *testing.B)    { benchMethod(b, GrayCode) }
func BenchmarkIterAlg515_256of5(b *testing.B) { benchMethod(b, Alg515) }
func BenchmarkIterGosper256of5(b *testing.B)  { benchMethod(b, Gosper) }
func BenchmarkIterMifsud256of5(b *testing.B)  { benchMethod(b, Mifsud154) }

// TestNextMaskMatchesNext verifies, for every method across a sweep of
// (n, k, startRank), that the mask fast path at batch widths 1, 7 and 64
// produces exactly the masks of the combinations Next yields - the
// invariant the batched host search depends on.
func TestNextMaskMatchesNext(t *testing.T) {
	for _, method := range Methods() {
		for _, tc := range []struct {
			n, k  int
			start uint64
			count int64
		}{
			{8, 3, 0, -1},
			{10, 4, 7, -1},
			{12, 5, 100, 50},
			{256, 2, 1234, 200},
			{256, 5, 0, 300},
		} {
			checkFillMatchesNext(t, method, tc.n, tc.k, tc.start, tc.count)
		}
	}
}

// TestNextMaskInterleaved verifies Next and a batch-of-one FillMasks
// consume from the same sequence and stay consistent when interleaved.
func TestNextMaskInterleaved(t *testing.T) {
	for _, method := range Methods() {
		n, k := 10, 4
		ref, _ := New(method, n, k, 0, -1)
		mi, _ := New(method, n, k, 0, -1)
		c := make([]int, k)
		refC := make([]int, k)
		var mask [1]u256.Uint256
		for step := 0; ; step++ {
			ok := ref.Next(refC)
			if step%3 == 0 {
				if got := mi.FillMasks(mask[:]) == 1; got != ok {
					t.Fatalf("%v step %d: FillMasks=%v want %v", method, step, got, ok)
				}
				if ok && !mask[0].Equal(maskOf(refC)) {
					t.Fatalf("%v step %d: mask %v, want comb %v", method, step, mask[0], refC)
				}
			} else {
				if got := mi.Next(c); got != ok {
					t.Fatalf("%v step %d: Next=%v want %v", method, step, got, ok)
				}
				if ok && fmt.Sprint(c) != fmt.Sprint(refC) {
					t.Fatalf("%v step %d: comb %v, want %v", method, step, c, refC)
				}
			}
			if !ok {
				break
			}
		}
	}
}

// TestApplyMask verifies the mask form of candidate generation agrees
// with ApplySeed.
func TestApplyMask(t *testing.T) {
	base := u256.New(0xDEADBEEF, 77, 0, 1<<63)
	c := []int{0, 63, 64, 255}
	if got, want := ApplyMask(base, maskOf(c)), ApplySeed(base, c); !got.Equal(want) {
		t.Fatalf("ApplyMask = %v, want %v", got, want)
	}
}

func benchMethodMask(b *testing.B, method Method) {
	mi, err := New(method, 256, 5, 0, -1)
	if err != nil {
		b.Fatal(err)
	}
	var mask [1]u256.Uint256
	for i := 0; i < b.N; i++ {
		if mi.FillMasks(mask[:]) == 0 {
			mi, _ = New(method, 256, 5, 0, -1)
			mi.FillMasks(mask[:])
		}
	}
}

func BenchmarkIterMaskGray256of5(b *testing.B)    { benchMethodMask(b, GrayCode) }
func BenchmarkIterMaskAlg515_256of5(b *testing.B) { benchMethodMask(b, Alg515) }
func BenchmarkIterMaskGosper256of5(b *testing.B)  { benchMethodMask(b, Gosper) }
func BenchmarkIterMaskMifsud256of5(b *testing.B)  { benchMethodMask(b, Mifsud154) }
