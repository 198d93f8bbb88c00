package core

import (
	"context"
	"runtime"
	"testing"

	"rbcsalted/internal/u256"
)

// TestSearchInlinePooledAllocs holds the inline fast path to its pooled
// footprint: a d=1 request draws its matcher — kernel staging state,
// candidate staging buffer and all — from the package pool, so what is
// left per request is the iterator, the worker goroutine and the result.
func TestSearchInlinePooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	base := u256.FromUint64(0xC0FFEE)
	for _, alg := range []HashAlg{SHA1, SHA3} {
		task := Task{Base: base, Target: HashSeed(alg, base.FlipBit(200)), MaxDistance: 3}
		run := func() {
			res, err := SearchInline(context.Background(), task, 1)
			if err != nil || !res.Found || res.Distance != 1 {
				t.Fatalf("%v: inline d=1 search = %+v, %v", alg, res, err)
			}
		}
		run() // fill the pool
		const runs = 200
		if n := testing.AllocsPerRun(runs, run); n > 32 {
			t.Errorf("%v: SearchInline(d=1) allocates %.0f objects/op, want <= 32", alg, n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= 8<<10 {
			t.Errorf("%v: SearchInline(d=1) allocates %d bytes/op, want < 8 KB", alg, b)
		}
	}
}

// TestSearchInlineReleasesOnCancel checks the exit path the others do
// not take: a cancelled inline search still hands its matcher back.
func TestSearchInlineReleasesOnCancel(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	base := u256.FromUint64(0xBEEF)
	task := Task{Base: base, Target: HashSeed(SHA3, base.FlipBit(1).FlipBit(2).FlipBit(3)), MaxDistance: 3}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := func() {
		if _, err := SearchInline(ctx, task, 2); err != context.Canceled {
			t.Fatalf("cancelled inline search: err = %v", err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= 8<<10 {
		t.Errorf("cancelled SearchInline allocates %d bytes/op: matcher not returned to the pool", b)
	}
}
