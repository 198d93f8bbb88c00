package core

import (
	"fmt"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/u256"
)

// The event model: a data-parallel RBC search over p lockstep workers is
// fully determined by where the matching combination falls in the chosen
// iteration order. Backends that model hardware (A100, Gemini, 64-core
// EPYC) use PlanShells to locate that event analytically from the task's
// oracle, then price the covered seeds with their own per-seed cost
// models. The match itself is always re-verified by hashing.

// ShellPlan describes one Hamming-distance shell of a planned search.
type ShellPlan struct {
	// Distance is the shell's Hamming distance (>= 1; distance 0 is the
	// single base seed, handled separately).
	Distance int
	// Size is C(256, Distance), the number of seeds in the shell.
	Size uint64
	// PerWorkerMax is the largest per-worker share when the shell is
	// split over the planned worker count (ceiling division).
	PerWorkerMax uint64
	// HasMatch reports whether the oracle seed lies in this shell.
	HasMatch bool
	// MatchRank is the global rank of the matching combination in the
	// task's iteration order (valid when HasMatch).
	MatchRank uint64
	// MatchLocal is the number of seeds the finding worker hashes up to
	// and including the match (valid when HasMatch).
	MatchLocal uint64
}

// MatchShell returns the Hamming distance between base and the oracle
// seed.
func MatchShell(base, oracle u256.Uint256) int {
	return base.HammingDistance(oracle)
}

// MatchRank returns the rank, in the given method's order, of the
// combination of bit positions where base and oracle differ. It is the
// event-model primitive that lets simulators place the match without
// enumerating the shell.
func MatchRank(method iterseq.Method, base, oracle u256.Uint256) (uint64, error) {
	diff := base.Xor(oracle)
	k := diff.OnesCount()
	c := make([]int, 0, k)
	for i := 0; i < 256; i++ {
		if diff.Bit(i) == 1 {
			c = append(c, i)
		}
	}
	switch method {
	case iterseq.GrayCode:
		return iterseq.GrayRank(256, c)
	case iterseq.Alg515, iterseq.Mifsud154:
		return combin.RankLex(256, c)
	case iterseq.Gosper:
		return combin.RankColex(256, c)
	default:
		return 0, fmt.Errorf("core: no ranking for method %v", method)
	}
}

// PlanShells computes the event plan for a task split over the given
// worker count, covering shells task.StartShell()..task.MaxDistance (the
// progressive serving path consumes a plan's tail: shells below
// MinDistance were already covered inline and are not re-planned). It
// requires task.Oracle when a match exists beyond what hashing alone
// could locate; a nil oracle produces a plan with no match events (the
// caller is then modelling a search that never finds a seed).
func PlanShells(task Task, workers int) ([]ShellPlan, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("core: workers must be positive, got %d", workers)
	}
	if err := checkMaxDistance(task.MaxDistance); err != nil {
		return nil, err
	}
	startShell := task.StartShell()
	matchShell := -1
	var matchRankGlobal uint64
	if task.Oracle != nil {
		d := MatchShell(task.Base, *task.Oracle)
		if d <= task.MaxDistance {
			matchShell = d
			if d > 0 {
				r, err := MatchRank(task.Method, task.Base, *task.Oracle)
				if err != nil {
					return nil, err
				}
				matchRankGlobal = r
			}
		}
	}
	plans := make([]ShellPlan, 0, task.MaxDistance-startShell+1)
	for d := startShell; d <= task.MaxDistance; d++ {
		size, ok := combin.Binomial64(256, d)
		if !ok {
			return nil, fmt.Errorf("core: C(256,%d) overflows uint64", d)
		}
		p := ShellPlan{
			Distance:     d,
			Size:         size,
			PerWorkerMax: (size + uint64(workers) - 1) / uint64(workers),
		}
		if d == matchShell {
			p.HasMatch = true
			p.MatchRank = matchRankGlobal
			ranges, err := iterseq.Partition(256, d, workers)
			if err != nil {
				return nil, err
			}
			for _, r := range ranges {
				if matchRankGlobal >= r.Start && matchRankGlobal < r.Start+r.Count {
					p.MatchLocal = matchRankGlobal - r.Start + 1
					break
				}
			}
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// CoveredAtExit returns the number of seeds covered across all workers
// when the finding worker signals after its local seed number matchLocal,
// with workers polling the exit flag every checkInterval seeds. Workers
// are modelled in lockstep; each covers at most its own share.
func (p ShellPlan) CoveredAtExit(workers, checkInterval int) uint64 {
	if !p.HasMatch {
		return p.Size
	}
	if checkInterval < 1 {
		checkInterval = 1
	}
	// Non-finding workers continue until their next flag poll.
	lag := p.MatchLocal + uint64(checkInterval) - 1
	perWorker := min64(lag, p.PerWorkerMax)
	covered := p.MatchLocal + uint64(workers-1)*perWorker
	if covered > p.Size {
		covered = p.Size
	}
	return covered
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
