package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/keccak"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/u256"
)

// forEachKeccakImpl runs f once per SHA-3 kernel body this CPU supports,
// so an AVX-512 machine still executes the portable code every other
// machine depends on.
func forEachKeccakImpl(t *testing.T, f func(t *testing.T)) {
	for _, impl := range keccak.SeedDigests8Impls() {
		t.Run(impl, func(t *testing.T) {
			defer keccak.ForceSeedDigests8Impl(impl)()
			f(t)
		})
	}
}

// seedAtRank returns the candidate at the given rank of shell d in the
// method's own order, built independently of the engine under test.
func seedAtRank(t *testing.T, base u256.Uint256, d int, method iterseq.Method, rank uint64) u256.Uint256 {
	t.Helper()
	it, err := iterseq.New(method, 256, d, rank, 1)
	if err != nil {
		t.Fatalf("iterseq.New(%v, d=%d, rank=%d): %v", method, d, rank, err)
	}
	c := make([]int, d)
	if !it.Next(c) {
		t.Fatalf("iterator empty at rank %d", rank)
	}
	return iterseq.ApplySeed(base, c)
}

// TestBatchedMatchesScalarExhaustive is the cross-engine equivalence
// property: for every iteration method and both hash algorithms, on one
// worker and on three, the batch kernel and the scalar oracle must
// agree on the found seed, and in exhaustive mode must both cover
// exactly C(256, d) seeds.
func TestBatchedMatchesScalarExhaustive(t *testing.T) {
	base := u256.FromUint64(0xfeed_beef_cafe_f00d)
	const d = 2
	total, _ := combin.Binomial64(256, d)

	// Plant targets at ranks chosen to exercise slot 0, a mid-batch
	// slot, a slot in the shell's last batch, and the no-match case.
	ranks := []uint64{0, 37, total - 5}
	for _, alg := range []HashAlg{SHA1, SHA3} {
		for _, method := range iterseq.Methods() {
			for _, workers := range []int{1, 3} {
				for _, rank := range ranks {
					want := seedAtRank(t, base, d, method, rank)
					target := HashSeed(alg, want)
					runEngines(t, base, d, method, alg, target, true, workers, func(tag string, found bool, seed u256.Uint256, covered uint64) {
						if !found {
							t.Errorf("%s %v %v w=%d rank=%d: match not found", tag, alg, method, workers, rank)
							return
						}
						if !seed.Equal(want) {
							t.Errorf("%s %v %v w=%d rank=%d: wrong seed", tag, alg, method, workers, rank)
						}
						if covered != total {
							t.Errorf("%s %v %v w=%d rank=%d: covered %d, want %d", tag, alg, method, workers, rank, covered, total)
						}
					})
				}
				// No match in the shell: the base's own digest is at
				// distance 0, outside shell d.
				target := HashSeed(alg, base)
				runEngines(t, base, d, method, alg, target, true, workers, func(tag string, found bool, _ u256.Uint256, covered uint64) {
					if found {
						t.Errorf("%s %v %v w=%d: spurious match", tag, alg, method, workers)
					}
					if covered != total {
						t.Errorf("%s %v %v w=%d: covered %d, want %d", tag, alg, method, workers, covered, total)
					}
				})
			}
		}
	}
}

// TestBatchedMatchesScalarEarlyExit checks the early-exit path: every
// batch engine must locate the same seed as the scalar oracle, and on a
// single worker (where it is deterministic) report the same covered
// count - the lane-exact accounting. Ranks are chosen to land mid-batch
// (4321 = 67*64+33) and in the shell's last batch, so the winning-lane
// truncation is exercised at both ends.
func TestBatchedMatchesScalarEarlyExit(t *testing.T) {
	base := u256.FromUint64(7)
	d2total, _ := combin.Binomial64(256, 2)
	cases := []struct {
		d    int
		rank uint64
	}{
		{3, 4321},        // mid-batch lane of a full batch
		{2, d2total - 5}, // inside the final batch
	}
	for _, tc := range cases {
		for _, alg := range []HashAlg{SHA1, SHA3} {
			for _, method := range iterseq.Methods() {
				want := seedAtRank(t, base, tc.d, method, tc.rank)
				target := HashSeed(alg, want)
				runEngines(t, base, tc.d, method, alg, target, false, 3, func(tag string, found bool, seed u256.Uint256, _ uint64) {
					if !found || !seed.Equal(want) {
						t.Errorf("%s %v %v d=%d w=3: found=%v, winner differs from the planted seed", tag, alg, method, tc.d, found)
					}
				})
				var scalarCovered uint64
				runEngines(t, base, tc.d, method, alg, target, false, 1, func(tag string, found bool, seed u256.Uint256, covered uint64) {
					if !found {
						t.Errorf("%s %v %v d=%d: match not found", tag, alg, method, tc.d)
						return
					}
					if !seed.Equal(want) {
						t.Errorf("%s %v %v d=%d: wrong seed", tag, alg, method, tc.d)
					}
					// runEngines visits "scalar" first; every batch
					// engine must agree with it exactly.
					if tag == "scalar" {
						scalarCovered = covered
						if covered != tc.rank+1 {
							t.Errorf("scalar %v %v d=%d: covered %d, want rank+1 = %d",
								alg, method, tc.d, covered, tc.rank+1)
						}
					} else if covered != scalarCovered {
						t.Errorf("%s %v %v d=%d: covered %d, scalar oracle covered %d",
							tag, alg, method, tc.d, covered, scalarCovered)
					}
				})
			}
		}
	}
}

// runEngines runs one shell search through the scalar oracle (always
// first, tagged "scalar") and then the batch kernel, once per SHA-3
// kernel body this CPU supports, handing each outcome to check.
func runEngines(t *testing.T, base u256.Uint256, d int, method iterseq.Method, alg HashAlg, target Digest, exhaustive bool, workers int, check func(tag string, found bool, seed u256.Uint256, covered uint64)) {
	t.Helper()
	run := func(tag string, f MatcherFactory) {
		found, seed, covered, _, err := SearchShellHost(
			context.Background(), base, d, method, workers, 0, exhaustive, time.Time{}, f)
		if err != nil {
			t.Fatalf("%s: SearchShellHost: %v", tag, err)
		}
		check(tag, found, seed, covered)
	}
	batched := HashMatcherFactory(alg, target)
	run("scalar", ScalarMatcher(batched))
	impls := []string{keccak.ImplPortable}
	if alg == SHA3 {
		impls = keccak.SeedDigests8Impls()
	}
	for _, impl := range impls {
		restore := keccak.ForceSeedDigests8Impl(impl)
		run(DefaultKernel(alg).String()+"/"+impl, batched)
		restore()
	}
}

// TestBatchKernels pins the selection that is no longer a selection:
// one batch kernel per algorithm, and every HashMatcher is batched.
func TestBatchKernels(t *testing.T) {
	for alg, want := range map[HashAlg]BatchKernel{SHA1: KernelMulti4, SHA3: KernelKeccakX8} {
		if got := BatchKernels(alg); len(got) != 1 || got[0] != want || DefaultKernel(alg) != want {
			t.Errorf("%v: BatchKernels = %v, DefaultKernel = %v, want only %v", alg, got, DefaultKernel(alg), want)
		}
		impls := []string{keccak.ImplPortable}
		if alg == SHA3 {
			impls = keccak.SeedDigests8Impls()
		}
		for _, impl := range impls {
			restore := keccak.ForceSeedDigests8Impl(impl)
			// The portable SHA-3 body runs the scalar reference's own
			// permutation, eight times: it is priced at parity. Every other
			// kernel must beat scalar on every iterator.
			for _, m := range iterseq.Methods() {
				s := DefaultKernelSpeedup(alg, m)
				ok, want := s > 1, "> 1"
				if alg == SHA3 && impl == keccak.ImplPortable {
					ok, want = s == 1, "exactly 1"
				}
				if !ok {
					t.Errorf("%v/%v/%v: DefaultKernelSpeedup = %v, want %s", alg, impl, m, s, want)
				}
			}
			restore()
		}
		if _, ok := HashMatcherFactory(alg, HashSeed(alg, u256.Zero))().(BatchMatcher); !ok {
			t.Errorf("%v: default matcher is not a BatchMatcher", alg)
		}
	}
	if DefaultKernel(SHA3).String() != "keccakx8" || DefaultKernel(SHA1).String() != "multibuf4" {
		t.Error("kernel names are bench artifact keys and must not change")
	}
}

// partialFills are the batch fill levels around the kernels' group
// boundaries (4 and 8 seeds), the host stride (64) and the call
// capacity (256).
var partialFills = []int{1, 7, 8, 9, 63, 64, 65, 255, 256}

// TestMatchMasksPartialBatches is the padded-tail table test of the
// batch contract: for every fill level in partialFills, both
// algorithms, and a match planted in the first lane, the last kept lane
// (the one the pad replicates) and the pad-adjacent lane just past the
// batch (which must not be reported), MatchMasks must equal the scalar
// oracle lane for lane.
func TestMatchMasksPartialBatches(t *testing.T) {
	forEachKeccakImpl(t, func(t *testing.T) {
		base := u256.FromUint64(0x5eed)
		var masks [MatchWidth]u256.Uint256
		for i := range masks {
			masks[i] = u256.Zero.FlipBit(i % 256).FlipBit((i*7 + 31) % 256)
		}
		for _, alg := range []HashAlg{SHA1, SHA3} {
			for _, n := range partialFills {
				plants := map[string]int{"first": 0, "last": n - 1}
				if n < MatchWidth {
					plants["pad-adjacent"] = n
				}
				for where, lane := range plants {
					target := HashSeed(alg, base.Xor(masks[lane]))
					m := NewHashMatcher(alg, target)
					var want MatchMask
					for i := 0; i < n; i++ {
						if m.Match(base.Xor(masks[i])) {
							want.SetBit(i)
						}
					}
					if planted := lane < n; want.Any() != planted || (planted && !want.Bit(lane)) {
						t.Fatalf("%v n=%d %s: scalar oracle mask %v does not reflect the plant", alg, n, where, want)
					}
					// MatchMasks may overwrite the pad region: hand it a copy.
					in := masks
					if got := m.MatchMasks(base, &in, n); got != want {
						t.Errorf("%v n=%d %s: mask %v, scalar oracle %v", alg, n, where, got, want)
					}
				}
			}
		}
	})
}

// TestPartialRangeMatchesScalar pins winner and covered accounting
// against the scalar oracle on ranges whose length is each of
// partialFills (plus two full strides, so the partial batch is a tail):
// early-exit hits at the first and last rank, and the exhaustive
// no-match case.
func TestPartialRangeMatchesScalar(t *testing.T) {
	forEachKeccakImpl(t, func(t *testing.T) {
		base := u256.FromUint64(0x77)
		const d = 2
		ctx := context.Background()
		for _, alg := range []HashAlg{SHA1, SHA3} {
			for _, n := range partialFills {
				for _, count := range []uint64{uint64(n), uint64(2*batchStride + n)} {
					for _, rank := range []uint64{0, count - 1} {
						want := seedAtRank(t, base, d, iterseq.GrayCode, rank)
						batched := HashMatcherFactory(alg, HashSeed(alg, want))
						sf, ss, sc, _, err := SearchRangeHost(ctx, base, d, iterseq.GrayCode, 0, count, 1, 0, false, time.Time{}, ScalarMatcher(batched))
						if err != nil || !sf {
							t.Fatalf("%v count=%d rank=%d: scalar oracle found=%v err=%v", alg, count, rank, sf, err)
						}
						bf, bs, bc, _, err := SearchRangeHost(ctx, base, d, iterseq.GrayCode, 0, count, 1, 0, false, time.Time{}, batched)
						if err != nil || !bf {
							t.Fatalf("%v count=%d rank=%d: batch kernel found=%v err=%v", alg, count, rank, bf, err)
						}
						if !bs.Equal(ss) || !bs.Equal(want) {
							t.Errorf("%v count=%d rank=%d: batch winner differs from scalar oracle", alg, count, rank)
						}
						if bc != sc || bc != rank+1 {
							t.Errorf("%v count=%d rank=%d: batch covered %d, scalar %d, want %d", alg, count, rank, bc, sc, rank+1)
						}
					}
					// The seed just past the range is what a pad lane
					// would reach if padding read on: never reported.
					past := seedAtRank(t, base, d, iterseq.GrayCode, count)
					bf, _, bc, _, err := SearchRangeHost(ctx, base, d, iterseq.GrayCode, 0, count, 1, 0, true, time.Time{},
						HashMatcherFactory(alg, HashSeed(alg, past)))
					if err != nil || bf || bc != count {
						t.Errorf("%v count=%d no-match: found=%v covered=%d err=%v", alg, count, bf, bc, err)
					}
				}
			}
		}
	})
}

// TestPooledMatcherResetOnReuse checks the matcher pool's task-switch
// hygiene: a matcher that served one task and is drawn for another
// gives the scalar verdicts for the new target and none for the old,
// on both match paths. The pool's New hands out one specific matcher so
// the draw is deterministic: sync.Pool drops Puts at random under the
// race detector, so reuse identity cannot be asserted through an actual
// Put/Get round-trip.
func TestPooledMatcherResetOnReuse(t *testing.T) {
	base := u256.FromUint64(0xc0ffee)
	var masks [MatchWidth]u256.Uint256
	for i := range masks {
		masks[i] = u256.Zero.FlipBit(i % 256).FlipBit((i*5 + 17) % 256)
	}
	const oldLane, newLane = 9, 100
	for _, algs := range [][2]HashAlg{{SHA3, SHA3}, {SHA3, SHA1}, {SHA1, SHA3}} {
		oldSeed, newSeed := base.Xor(masks[oldLane]), base.Xor(masks[newLane])
		hm := NewHashMatcher(algs[0], HashSeed(algs[0], oldSeed))
		in := masks
		if got := hm.MatchMasks(base, &in, MatchWidth); got.Count() != 1 || !got.Bit(oldLane) {
			t.Fatalf("%v: first task matched %v, want lane %d only", algs, got, oldLane)
		}

		pool := &sync.Pool{New: func() any { return hm }}
		m := PooledHashMatcherFactory(pool, algs[1], HashSeed(algs[1], newSeed))()
		pm, ok := m.(*pooledHashMatcher)
		if !ok || pm.HashMatcher != hm {
			t.Fatalf("%v: factory returned %T, not the pooled matcher", algs, m)
		}
		if !pm.Match(newSeed) || pm.Match(oldSeed) {
			t.Errorf("%v: scalar verdicts not re-derived for the new target", algs)
		}
		in = masks
		if got := pm.MatchMasks(base, &in, MatchWidth); got.Count() != 1 || !got.Bit(newLane) {
			t.Errorf("%v: reused matcher matched %v, want lane %d only", algs, got, newLane)
		}
		// Release must route back through the wrapper without blowing up;
		// whether the pool retains the object is sync.Pool's business.
		pm.ReleaseMatcher()
	}
}

// TestSearchRangeHostIterErrorPropagates covers the satellite fix: a
// worker whose iterator construction fails must surface the error from
// SearchRangeHost instead of panicking the process.
func TestSearchRangeHostIterErrorPropagates(t *testing.T) {
	base := u256.FromUint64(1)
	target := HashSeed(SHA1, base)
	// startRank beyond the shell size makes iterseq.New fail in-worker.
	total, _ := combin.Binomial64(256, 2)
	_, _, _, _, err := SearchRangeHost(
		context.Background(), base, 2, iterseq.Alg515, total+10, 5, 2, 0,
		false, time.Time{}, HashMatcherFactory(SHA1, target))
	if err == nil {
		t.Fatalf("SearchRangeHost with out-of-range startRank: want error, got nil")
	}
}

// TestSearchShellHostDefaultsCheckInterval: a zero or negative
// checkEvery must behave like DefaultCheckInterval, not hang or panic.
func TestSearchShellHostDefaultsCheckInterval(t *testing.T) {
	base := u256.FromUint64(3)
	want := seedAtRank(t, base, 2, iterseq.GrayCode, 100)
	target := HashSeed(SHA3, want)
	for _, ce := range []int{0, -7} {
		found, seed, _, _, err := SearchShellHost(
			context.Background(), base, 2, iterseq.GrayCode, 2, ce, false,
			time.Time{}, HashMatcherFactory(SHA3, target))
		if err != nil || !found || !seed.Equal(want) {
			t.Fatalf("checkEvery=%d: found=%v err=%v", ce, found, err)
		}
	}
}

// TestHashMatcherScalarAgreesWithHashSeed pins the quick-reject scalar
// path to the reference digest comparison.
func TestHashMatcherScalarAgreesWithHashSeed(t *testing.T) {
	base := u256.FromUint64(0xabcdef)
	for _, alg := range []HashAlg{SHA1, SHA3} {
		target := HashSeed(alg, base)
		m := NewHashMatcher(alg, target)
		if !m.Match(base) {
			t.Errorf("%v: self-match failed", alg)
		}
		if m.Match(base.FlipBit(17)) {
			t.Errorf("%v: matched a non-target seed", alg)
		}
	}
}

// TestHotLoopAllocs asserts the steady-state hot loops allocate
// nothing per seed: the scalar match, MatchMasks on both batch kernels
// (full and padded-partial batches, timed and untimed), the
// batch-of-one and batched fills, and the whole batched search per
// batch. It runs with the batch-phase histograms installed, so the
// sampled timing is inside what it counts.
func TestHotLoopAllocs(t *testing.T) {
	prev := SetHostBatchMetrics(RegisterHostBatchMetrics(obs.NewRegistry()))
	defer SetHostBatchMetrics(prev)
	forEachKeccakImpl(t, testHotLoopAllocs)
}

func testHotLoopAllocs(t *testing.T) {
	base := u256.FromUint64(99)
	for _, alg := range []HashAlg{SHA1, SHA3} {
		target := HashSeed(alg, base)
		m := NewHashMatcher(alg, target)

		cand := base.FlipBit(3).FlipBit(200)
		if n := testing.AllocsPerRun(100, func() {
			m.Match(cand)
		}); n != 0 {
			t.Errorf("%v scalar Match allocates %.1f/op", alg, n)
		}

		var masks [MatchWidth]u256.Uint256
		for i := range masks {
			masks[i] = u256.Zero.FlipBit(i % 256).FlipBit((i + 64) % 256)
		}
		for _, n := range []int{MatchWidth, MatchWidth - 3} {
			if a := testing.AllocsPerRun(10, func() {
				m.MatchMasks(base, &masks, n)
				m.matchMasksTimed(base, &masks, n)
			}); a != 0 {
				t.Errorf("%v MatchMasks(n=%d) allocates %.1f/op", alg, n, a)
			}
		}

		// A search of 200 batches allocates what a search of 2 does.
		search := func(count uint64) float64 {
			return testing.AllocsPerRun(5, func() {
				SearchRangeHost(context.Background(), base, 2, iterseq.GrayCode, 0, count, 1, 0,
					true, time.Time{}, HashMatcherFactory(alg, target))
			})
		}
		if short, long := search(2*batchStride), search(200*batchStride); long != short {
			t.Errorf("%v search allocates %.1f over 2 batches, %.1f over 200", alg, short, long)
		}
	}

	for _, method := range iterseq.Methods() {
		mi, err := iterseq.New(method, 256, 3, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		var mask [1]u256.Uint256
		if n := testing.AllocsPerRun(100, func() {
			mi.FillMasks(mask[:])
			_ = iterseq.ApplyMask(base, mask[0])
		}); n != 0 {
			t.Errorf("%v batch-of-one FillMasks allocates %.1f/op", method, n)
		}

		var masks [MatchWidth]u256.Uint256
		if n := testing.AllocsPerRun(20, func() {
			mi.FillMasks(masks[:])
		}); n != 0 {
			t.Errorf("%v FillMasks allocates %.1f/op", method, n)
		}
	}
}

// TestSampledBatchMetricsCountEveryBatch pins the sampled batch-phase
// timing to exact counts: one exhaustive d=2 shell, on one worker and on
// three, records one Fill and one Pack observation per batch the shell
// ran, though only the first batch of each poll interval is timed.
func TestSampledBatchMetricsCountEveryBatch(t *testing.T) {
	base := u256.FromUint64(0x5a)
	target := HashSeed(SHA3, base)
	total, _ := combin.Binomial64(256, 2)
	for _, workers := range []int{1, 3} {
		hbm := RegisterHostBatchMetrics(obs.NewRegistry())
		prev := SetHostBatchMetrics(hbm)
		_, _, covered, _, err := SearchShellHost(context.Background(), base, 2, iterseq.GrayCode,
			workers, 0, true, time.Time{}, HashMatcherFactory(SHA3, target))
		SetHostBatchMetrics(prev)
		if err != nil || covered != total {
			t.Fatalf("w=%d: covered %d of %d, err %v", workers, covered, total, err)
		}
		// 32640 seeds are 510 batches of 64, and 170 for each of three
		// workers' 10880.
		const batches = 510
		fill, pack := hbm.Fill.Snapshot(), hbm.Pack.Snapshot()
		if fill.Count != batches || pack.Count != batches {
			t.Errorf("w=%d: Fill.Count %d, Pack.Count %d, want %d batches", workers, fill.Count, pack.Count, batches)
		}
		if fill.Sum <= 0 || pack.Sum <= 0 {
			t.Errorf("w=%d: Fill.Sum %v, Pack.Sum %v, want both positive", workers, fill.Sum, pack.Sum)
		}
	}
}
