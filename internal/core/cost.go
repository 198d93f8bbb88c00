package core

import (
	"context"
	"fmt"
	"time"

	"rbcsalted/internal/combin"
)

// Cost is a backend's predicted price for one search: modelled device
// time and the energy drawn over it. Predictions use the expected
// (average-case, Equation 3) coverage — full shells below MaxDistance
// plus half the final shell for an early-exit search, every shell in
// full for an exhaustive one — so two backends' predictions for the
// same task are directly comparable.
type Cost struct {
	// Seconds is the predicted device-seconds of search.
	Seconds float64
	// Joules is the predicted energy over those seconds under the
	// backend's power model.
	Joules float64
}

// CostModel is implemented by backends that can price a search before
// running it. The planner (internal/plan) consumes these predictions as
// its static per-backend throughput/energy curves; each simulator
// derives them from the same calibrated model that prices its searches,
// and the real host engine derives them from the measured host cost
// table, so prediction and execution cannot drift apart structurally.
type CostModel interface {
	// PredictCost prices the task without running it. Implementations
	// must not consult the task's Oracle: the prediction is what a
	// dispatcher knows before the answer exists.
	PredictCost(task Task) (Cost, error)
}

// ETAEstimator is implemented by backends (notably the planner) whose
// service-time estimate depends on the task itself, not just on the
// history of past searches. The scheduler's deadline admission consults
// it when present: an estimate specific to the task's shell sizes and
// chosen engine refuses infeasible deadlines the global EWMA would
// wrongly admit, and admits small searches the EWMA would wrongly
// refuse.
type ETAEstimator interface {
	// EstimateETA returns the expected service time for the task on the
	// engine that would serve it, and whether an estimate is available.
	EstimateETA(task Task) (time.Duration, bool)
}

// AlternateSearcher is implemented by multiplexing backends that can
// run a search on a different engine than their first choice. The
// scheduler's hand-off uses it: when a flight straggles past the hedge
// trigger, the scheduler cancels it and continues the search past the
// shells it finished (Continue) on the *second-best* engine, which
// attacks the case where the primary engine itself (not transient load)
// is the problem.
type AlternateSearcher interface {
	// SearchAlternate runs the task on the backend's second choice of
	// engine, falling back to the primary when only one engine exists.
	SearchAlternate(ctx context.Context, task Task) (Result, error)
}

// PriceBall is the one pricing walk behind every CostModel: the cost of
// the base probe (iff the task covers it) plus, for each shell the task
// covers, whatever the engine charges for it. shell is told the shell's
// distance and size and the number of seeds one of the engine's `lanes`
// lockstep lanes is expected to cover there: its equal share of the
// shell (rounded up), halved — the uniform-match expectation — when an
// early-exit search ends in that shell. The sum is in the engine's own
// unit (seconds, cycles).
func PriceBall(task Task, lanes uint64, base float64, shell func(d int, size, expect uint64) float64) (float64, error) {
	if err := checkMaxDistance(task.MaxDistance); err != nil {
		return 0, err
	}
	total := 0.0
	if task.IncludeBase() {
		total += base
	}
	for d := task.StartShell(); d <= task.MaxDistance; d++ {
		size, ok := combin.Binomial64(256, d)
		if !ok {
			return 0, fmt.Errorf("core: C(256,%d) overflows uint64", d)
		}
		total += shell(d, size, expectedShellCoverage(task, d, (size+lanes-1)/lanes))
	}
	return total, nil
}

// expectedShellCoverage returns the expected number of seeds covered in
// the shell at distance d out of seeds: all of them when the search is
// exhaustive or the shell is not the last, half when an early-exit
// search ends there.
func expectedShellCoverage(task Task, d int, seeds uint64) uint64 {
	if task.Exhaustive || d < task.MaxDistance {
		return seeds
	}
	return max(seeds/2, 1)
}
