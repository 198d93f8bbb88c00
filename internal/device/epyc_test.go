package device

import (
	"math/rand/v2"
	"testing"

	"rbcsalted/internal/core"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/u256"
)

func TestSpeedupCalibration(t *testing.T) {
	if s := EPYCSpeedup(core.SHA1, 64); rel(s, 59) > 0.01 {
		t.Errorf("SHA-1 speedup(64) = %0.2f, want 59", s)
	}
	if s := EPYCSpeedup(core.SHA3, 64); rel(s, 63) > 0.01 {
		t.Errorf("SHA-3 speedup(64) = %0.2f, want 63", s)
	}
	if s := EPYCSpeedup(core.SHA3, 1); rel(s, 1) > 1e-9 {
		t.Errorf("speedup(1) = %f, want 1", s)
	}
	// Monotone in p.
	prev := 0.0
	for p := 1; p <= 64; p *= 2 {
		s := EPYCSpeedup(core.SHA1, p)
		if s <= prev {
			t.Errorf("speedup not monotone at p=%d", p)
		}
		prev = s
	}
}

// TestEPYCExitLocatesMatch: a match in shell 3 ends the search there, and
// the finding worker's steps lie inside its share.
func TestEPYCExitLocatesMatch(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	e := NewEPYC(core.SHA3, MeasureHostCosts())
	for _, method := range iterseq.Methods() {
		base := randSeed(r)
		oracle := base.FlipBit(3).FlipBit(77).FlipBit(200)
		task := taskFor(core.SHA3, base, oracle, 5, method)
		rank, err := core.MatchRank(method, base, oracle)
		if err != nil {
			t.Fatal(err)
		}
		const size = 2763520 // C(256, 3)
		perWorker := (size + e.d.lanes - 1) / e.d.lanes
		if steps, _ := e.d.exit(task, size, rank); steps == 0 || steps > perWorker {
			t.Errorf("%v: %d steps outside (0, %d]", method, steps, perWorker)
		}
		res, err := e.Search(t.Context(), task)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Distance != 3 || len(res.Shells) != 3 {
			t.Errorf("%v: found=%v at d=%d after %d shells, want the match in shell 3", method, res.Found, res.Distance, len(res.Shells))
		}
	}
}

// TestEPYCExitMatchesRealIteration cross-validates the exit rule against
// walking the iterator: the worker partition iterseq.Partition assigns
// and the finding worker's local offset must be exactly where the
// matching combination appears.
func TestEPYCExitMatchesRealIteration(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	base := randSeed(r)
	oracle := base.FlipBit(9).FlipBit(41)
	const workers, size = 5, 32640 // C(256, 2)
	exit := partitionExit(workers)
	ranges, err := iterseq.Partition(256, 2, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range iterseq.Methods() {
		rank, err := core.MatchRank(method, base, oracle)
		if err != nil {
			t.Fatal(err)
		}
		local := uint64(0)
		for _, rg := range ranges {
			it, err := iterseq.New(method, 256, 2, rg.Start, int64(rg.Count))
			if err != nil {
				t.Fatal(err)
			}
			var mask [1]u256.Uint256
			for i := uint64(1); it.FillMasks(mask[:]) == 1; i++ {
				if base.Xor(mask[0]).Equal(oracle) {
					local = i
				}
			}
		}
		if local == 0 {
			t.Fatalf("%v: oracle not reachable", method)
		}
		if steps, _ := exit(core.Task{}, size, rank); steps != local {
			t.Errorf("%v: the walk finds the match %d seeds into its worker's share, the exit rule says %d", method, local, steps)
		}
	}
}

func TestEPYCExitCoverage(t *testing.T) {
	// 10 workers in lockstep over a 1000-seed shell, 100 each; the match
	// is the 10th seed of worker 3's share.
	exit := partitionExit(10)
	const size, rank = 1000, 309
	steps, covered := exit(core.Task{CheckInterval: 1}, size, rank)
	if steps != 10 || covered != 10+9*10 {
		t.Errorf("poll every seed: %d steps, %d covered; want 10, 100", steps, covered)
	}
	// A long poll interval adds lag, capped by each worker's share.
	if _, covered = exit(core.Task{CheckInterval: 1000}, size, rank); covered != 10+9*100 {
		t.Errorf("poll every 1000 seeds: covered %d, want 910", covered)
	}
	// An unset interval polls every seed.
	if _, covered = exit(core.Task{}, size, rank); covered != 100 {
		t.Errorf("unset interval: covered %d, want 100", covered)
	}
	// Coverage can never exceed the shell.
	if _, covered = partitionExit(100)(core.Task{CheckInterval: 64}, size, size-1); covered > size {
		t.Errorf("coverage %d exceeded the %d-seed shell", covered, size)
	}
	// Uneven split: the first size%workers workers take one seed more.
	if steps, _ = partitionExit(3)(core.Task{}, 10, 4); steps != 1 {
		t.Errorf("rank 4 of 10 over 3 workers (4,3,3): %d steps, want 1", steps)
	}
	if steps, _ = partitionExit(3)(core.Task{}, 10, 9); steps != 3 {
		t.Errorf("rank 9 of 10 over 3 workers (4,3,3): %d steps, want 3", steps)
	}
}
