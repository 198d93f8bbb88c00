package core

import (
	"context"
	"math/bits"
	"sync"
	"testing"
	"time"

	"rbcsalted/internal/bitslice"
	"rbcsalted/internal/combin"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/u256"
)

// packedFromMasks builds the reference resident state for base^masks:
// what a from-scratch pack of the whole batch produces. The delta engine
// must hold exactly this after any number of chained advances.
func packedFromMasks(base u256.Uint256, masks *[MatchWidth]u256.Uint256) [4]bitslice.Slice256 {
	var vals [4][MatchWidth]uint64
	for i := 0; i < MatchWidth; i++ {
		cand := base.Xor(masks[i])
		vals[0][i] = bits.ReverseBytes64(cand.Limb(3))
		vals[1][i] = bits.ReverseBytes64(cand.Limb(2))
		vals[2][i] = bits.ReverseBytes64(cand.Limb(1))
		vals[3][i] = bits.ReverseBytes64(cand.Limb(0))
	}
	var want [4]bitslice.Slice256
	bitslice.PackSeedVals256(&want, &vals)
	return want
}

// FuzzDeltaFill differentially fuzzes the sliced-domain delta engine:
// after every chained MatchMasks the resident message lanes must be
// bit-identical to a fresh pack of the same candidates, and the match
// verdict must equal that of a reference matcher re-primed for every
// batch — across all four iterators, iterator restarts (a lane's next
// mask then bears no relation to its previous one), partial final
// batches and a task-switch Reset.
func FuzzDeltaFill(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint16(100), uint8(3), uint8(0))
	f.Add(uint64(0xfeedbeef), uint8(1), uint16(200), uint8(2), uint8(1))
	f.Add(uint64(0), uint8(2), uint16(32500), uint8(2), uint8(2)) // near shell end: partial batch
	f.Add(uint64(42), uint8(3), uint16(9999), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, baseWord uint64, dRaw uint8, startRaw uint16, batchesRaw, methodRaw uint8) {
		method := iterseq.Methods()[int(methodRaw)%len(iterseq.Methods())]
		d := 1 + int(dRaw)%3
		base := u256.FromUint64(baseWord)
		total, _ := combin.Binomial64(256, d)
		start := uint64(startRaw) % total
		batches := 1 + int(batchesRaw)%4

		// Plant the target on a real candidate so hit lanes (and their
		// trimming on partial batches) are exercised, not just misses.
		plantRank := start + uint64(batchesRaw)*97
		if plantRank >= total {
			plantRank = total - 1
		}
		pit, err := iterseq.New(method, 256, d, plantRank, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := make([]int, d)
		if !pit.Next(c) {
			t.Fatal("plant iterator empty")
		}
		target := HashSeed(SHA3, iterseq.ApplySeed(base, c))

		m := NewHashMatcher(SHA3, target)
		ref := repackMatcher{NewHashMatcher(SHA3, target)}

		mi, err := iterseq.New(method, 256, d, start, -1)
		if err != nil {
			t.Fatal(err)
		}
		var masks [MatchWidth]u256.Uint256
		step := func(b int) {
			n := iterseq.FillMasks(mi, masks[:])
			if n == 0 {
				// Sequence exhausted: restart at rank 0. The chain stays
				// live across the jump - the deltas are just larger.
				if mi, err = iterseq.New(method, 256, d, 0, -1); err != nil {
					t.Fatal(err)
				}
				n = iterseq.FillMasks(mi, masks[:])
			}
			got := m.MatchMasks(base, &masks, n)
			// MatchMasks wrote the pad region of masks, so the full array
			// is exactly what must be resident.
			if m.deltaMsg != packedFromMasks(base, &masks) {
				t.Fatalf("batch %d (%v d=%d start=%d n=%d): resident state diverged from fresh pack",
					b, method, d, start, n)
			}
			refMasks := masks
			if want := ref.MatchMasks(base, &refMasks, n); got != want {
				t.Fatalf("batch %d (%v d=%d start=%d n=%d): delta mask %v, repack mask %v",
					b, method, d, start, n, got, want)
			}
		}
		for b := 0; b < batches; b++ {
			step(b)
		}

		// Task switch: Reset to a new target must break the chain and
		// re-derive target state; the next batch primes from scratch.
		m.Reset(SHA3, HashSeed(SHA3, base))
		if m.deltaLive {
			t.Fatal("Reset left the delta chain live")
		}
		ref.Reset(SHA3, HashSeed(SHA3, base))
		step(batches)

		// A different base mid-chain re-primes instead of applying mask
		// deltas to lanes that hold another base's candidates.
		base = base.FlipBit(int(dRaw))
		step(batches + 1)
	})
}

// TestDeltaKernelPartial63 pins the SHA-3 kernel's covered/winner
// accounting against the scalar oracle on a range ending in a 63-of-256
// partial batch: early-exit hits inside the partial batch, mid-batch in
// a full batch, at the very last rank, and the no-match exhaustive case.
func TestDeltaKernelPartial63(t *testing.T) {
	base := u256.FromUint64(0x77)
	const d = 2
	count := uint64(2*MatchWidth + 63)
	ctx := context.Background()
	for _, method := range iterseq.Methods() {
		for _, rank := range []uint64{300, 2*MatchWidth + 30, count - 1} {
			want := seedAtRank(t, base, d, method, rank)
			target := HashSeed(SHA3, want)
			delta := HashMatcherFactory(SHA3, target)
			scalar := ScalarMatcher(delta)
			sf, ss, sc, _, err := SearchRangeHost(ctx, base, d, method, 0, count, 1, 0, false, time.Time{}, scalar)
			if err != nil || !sf {
				t.Fatalf("%v rank=%d: scalar oracle found=%v err=%v", method, rank, sf, err)
			}
			df, ds, dc, _, err := SearchRangeHost(ctx, base, d, method, 0, count, 1, 0, false, time.Time{}, delta)
			if err != nil || !df {
				t.Fatalf("%v rank=%d: delta kernel found=%v err=%v", method, rank, df, err)
			}
			if !ds.Equal(ss) || !ds.Equal(want) {
				t.Errorf("%v rank=%d: delta winner differs from scalar oracle", method, rank)
			}
			if dc != sc || dc != rank+1 {
				t.Errorf("%v rank=%d: delta covered %d, scalar %d, want %d", method, rank, dc, sc, rank+1)
			}
		}
		// No match in range: both engines must cover exactly count seeds.
		delta := HashMatcherFactory(SHA3, HashSeed(SHA3, base))
		df, _, dc, _, err := SearchRangeHost(ctx, base, d, method, 0, count, 1, 0, true, time.Time{}, delta)
		if err != nil || df {
			t.Fatalf("%v no-match: found=%v err=%v", method, df, err)
		}
		if dc != count {
			t.Errorf("%v no-match: delta covered %d, want %d", method, dc, count)
		}
	}
}

// TestPooledMatcherResetOnReuse checks the matcher pool's task-switch
// hygiene: a matcher drawn for a new task after running a delta chain
// for the previous one comes out Reset — the chain invalidated and all
// target state re-derived. The pool's New hands out one specific
// matcher so the draw is deterministic: sync.Pool drops Puts at random
// under the race detector, so reuse identity cannot be asserted through
// an actual Put/Get round-trip.
func TestPooledMatcherResetOnReuse(t *testing.T) {
	base := u256.FromUint64(0xc0ffee)
	targetA := HashSeed(SHA3, base.FlipBit(3).FlipBit(9))

	hm := NewHashMatcher(SHA3, targetA)

	// Run a two-batch delta chain so resident state is live on release.
	mi, err := iterseq.New(iterseq.GrayCode, 256, 2, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	var masks [MatchWidth]u256.Uint256
	for b := 0; b < 2; b++ {
		n := iterseq.FillMasks(mi, masks[:])
		hm.MatchMasks(base, &masks, n)
	}
	if !hm.deltaLive {
		t.Fatal("delta chain not live after chained batches")
	}

	pool := &sync.Pool{New: func() any { return hm }}
	seedB := base.FlipBit(100)
	targetB := HashSeed(SHA1, seedB)
	mB := PooledHashMatcherFactory(pool, SHA1, targetB)()
	pmB, ok := mB.(*pooledHashMatcher)
	if !ok {
		t.Fatalf("pooled factory returned %T, want *pooledHashMatcher", mB)
	}
	if pmB.HashMatcher != hm {
		t.Fatal("factory did not draw the pooled matcher")
	}
	if pmB.HashMatcher.deltaLive {
		t.Error("reused matcher still carries the previous task's delta chain")
	}
	if !pmB.Match(seedB) || pmB.Match(base) {
		t.Error("reused matcher target state not re-derived for the new task")
	}
	// Release must route back through the wrapper without blowing up;
	// whether the pool retains the object is sync.Pool's business.
	pmB.ReleaseMatcher()
}
