package cpu

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/keccak"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

func randSeed(r *rand.Rand) u256.Uint256 {
	return u256.New(r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
}

func taskFor(alg core.HashAlg, base, client u256.Uint256, maxD int, method iterseq.Method) core.Task {
	oracle := client
	return core.Task{
		Base:        base,
		Target:      core.HashSeed(alg, client),
		MaxDistance: maxD,
		Method:      method,
		Oracle:      &oracle,
	}
}

func TestSearchFindsSeedAtEachDistance(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, alg := range core.HashAlgs() {
		for d := 0; d <= 2; d++ {
			base := randSeed(r)
			client := base
			client = puf.InjectNoise(client, base, d, r)
			b := &Backend{Alg: alg, Workers: 4}
			res, err := b.Search(context.Background(), taskFor(alg, base, client, 2, iterseq.GrayCode))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || !res.Seed.Equal(client) || res.Distance != d {
				t.Errorf("%s d=%d: found=%v seed ok=%v distance=%d",
					alg, d, res.Found, res.Seed.Equal(client), res.Distance)
			}
			if res.HashesExecuted != res.SeedsCovered {
				t.Errorf("real backend must hash everything it covers: %d != %d",
					res.HashesExecuted, res.SeedsCovered)
			}
		}
	}
}

func TestSearchAllMethodsAgree(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 2, r)
	for _, method := range iterseq.Methods() {
		b := &Backend{Alg: core.SHA3, Workers: 3}
		res, err := b.Search(context.Background(), taskFor(core.SHA3, base, client, 3, method))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !res.Found || !res.Seed.Equal(client) || res.Distance != 2 {
			t.Errorf("%v: wrong result %+v", method, res)
		}
	}
}

func TestSearchNotFoundBeyondRadius(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 3, r)
	b := &Backend{Alg: core.SHA3, Workers: 4}
	res, err := b.Search(context.Background(), taskFor(core.SHA3, base, client, 2, iterseq.GrayCode))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("found a seed that lies outside the search radius")
	}
	want := combin.ExhaustiveSeeds(256, 2).Uint64()
	if res.SeedsCovered != want {
		t.Errorf("covered %d seeds, want u(2)=%d", res.SeedsCovered, want)
	}
}

func TestExhaustiveCoversEverythingAndStillFinds(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 1, r)
	task := taskFor(core.SHA3, base, client, 2, iterseq.GrayCode)
	task.Exhaustive = true
	b := &Backend{Alg: core.SHA3, Workers: 4}
	res, err := b.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Distance != 1 {
		t.Errorf("exhaustive search lost the match: %+v", res)
	}
	want := combin.ExhaustiveSeeds(256, 2).Uint64()
	if res.SeedsCovered != want {
		t.Errorf("exhaustive covered %d, want %d", res.SeedsCovered, want)
	}
}

func TestEarlyExitSavesWork(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 2, r)
	b := &Backend{Alg: core.SHA1, Workers: 4}

	early, err := b.Search(context.Background(), taskFor(core.SHA1, base, client, 2, iterseq.GrayCode))
	if err != nil {
		t.Fatal(err)
	}
	task := taskFor(core.SHA1, base, client, 2, iterseq.GrayCode)
	task.Exhaustive = true
	exhaustive, err := b.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if early.SeedsCovered >= exhaustive.SeedsCovered {
		t.Errorf("early exit covered %d >= exhaustive %d",
			early.SeedsCovered, exhaustive.SeedsCovered)
	}
}

func TestCheckIntervalDoesNotChangeResult(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 2, r)
	for _, interval := range []int{0, 1, 7, 64} {
		task := taskFor(core.SHA3, base, client, 2, iterseq.Alg515)
		task.CheckInterval = interval
		b := &Backend{Alg: core.SHA3, Workers: 5}
		res, err := b.Search(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || !res.Seed.Equal(client) {
			t.Errorf("interval %d: lost match", interval)
		}
	}
}

func TestTimeout(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	base := randSeed(r)
	// No match anywhere: search d=3 (2.8M seeds) with a tiny time limit.
	task := core.Task{
		Base:        base,
		Target:      core.HashSeed(core.SHA3, randSeed(r)),
		MaxDistance: 3,
		Method:      iterseq.GrayCode,
		TimeLimit:   time.Millisecond,
	}
	b := &Backend{Alg: core.SHA3, Workers: 2}
	res, err := b.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Found {
		t.Errorf("expected timeout without match, got %+v", res)
	}
}

func TestWorkerCountsEquivalent(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 2, r)
	for _, workers := range []int{1, 2, 16, 100} {
		b := &Backend{Alg: core.SHA3, Workers: workers}
		res, err := b.Search(context.Background(), taskFor(core.SHA3, base, client, 2, iterseq.GrayCode))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || !res.Seed.Equal(client) {
			t.Errorf("workers=%d: lost match", workers)
		}
	}
}

func TestInvalidMaxDistance(t *testing.T) {
	b := &Backend{Alg: core.SHA3}
	if _, err := b.Search(context.Background(), core.Task{MaxDistance: 11}); err == nil {
		t.Error("expected error for MaxDistance 11")
	}
	if _, err := b.Search(context.Background(), core.Task{MaxDistance: -1}); err == nil {
		t.Error("expected error for negative MaxDistance")
	}
}

func TestName(t *testing.T) {
	b := &Backend{Alg: core.SHA1, Workers: 8}
	if b.Name() == "" {
		t.Error("empty name")
	}
}

func TestModelAgreesWithRealBackendAtSmallScale(t *testing.T) {
	// The EPYC model (device.NewEPYC) and the real engine must find the
	// same seed at the same distance (times differ: one is modelled EPYC,
	// one is this host).
	r := rand.New(rand.NewPCG(21, 22))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 2, r)
	task := taskFor(core.SHA3, base, client, 3, iterseq.Gosper)
	real := &Backend{Alg: core.SHA3, Workers: 4}
	model := device.NewEPYC(core.SHA3, device.MeasureHostCosts())
	rr, err := real.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := model.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Found != mr.Found || !rr.Seed.Equal(mr.Seed) || rr.Distance != mr.Distance {
		t.Errorf("real %+v vs model %+v disagree", rr, mr)
	}
}

// TestPredictCostTracksTheKernelThatRuns prices an exhaustive d=2 shell
// and runs it: on each SHA-3 kernel body this CPU supports the
// prediction must be within 2x of the measurement, or ETA admission
// would refuse feasible deadlines and the planner mis-rank the host.
// The measurement is the best of five runs, as the prediction's cost
// table is a minimum over rounds: both estimate the unloaded host.
func TestPredictCostTracksTheKernelThatRuns(t *testing.T) {
	if device.RaceEnabled {
		t.Skip("the race detector slows the Go scalar reference the prediction scales from, not the assembly it prices")
	}
	base := u256.FromUint64(0x9d2)
	for _, impl := range keccak.SeedDigests8Impls() {
		t.Run(impl, func(t *testing.T) {
			defer keccak.ForceSeedDigests8Impl(impl)()
			b := &Backend{Alg: core.SHA3, Workers: 1}
			task := core.Task{
				Base: base, Target: core.HashSeed(core.SHA3, base),
				MinDistance: 2, MaxDistance: 2, Exhaustive: true,
			}
			predicted, err := b.PredictCost(task)
			if err != nil {
				t.Fatal(err)
			}
			measured := 0.0
			for run := 0; run < 5; run++ {
				res, err := b.Search(context.Background(), task)
				if err != nil {
					t.Fatal(err)
				}
				if run == 0 || res.WallSeconds < measured {
					measured = res.WallSeconds
				}
			}
			if ratio := predicted.Seconds / measured; ratio < 0.5 || ratio > 2 {
				t.Errorf("predicted %.2f ms, measured %.2f ms: ratio %.2f outside [0.5, 2]",
					predicted.Seconds*1e3, measured*1e3, ratio)
			} else {
				t.Logf("predicted %.2f ms, measured %.2f ms (ratio %.2f)", predicted.Seconds*1e3, measured*1e3, ratio)
			}
		})
	}
}
