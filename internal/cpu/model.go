package cpu

import (
	"context"
	"fmt"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/u256"
)

// ModelBackend is SALTED-CPU on the paper's PlatformA (2x AMD EPYC 7542,
// 64 cores), reproduced as an event-driven model: the match position is
// located analytically (core.PlanShells), per-seed cost ratios between
// hash algorithms and seed iterators are measured on the host, and the
// absolute scale is pinned to the paper's Table 5 anchors. Matches are
// verified by hashing.
type ModelBackend struct {
	// Alg is the hash algorithm searched with.
	Alg core.HashAlg
	// Workers is the modelled thread count; 0 means the paper's 64.
	Workers int
}

// Name implements core.Backend.
func (m *ModelBackend) Name() string {
	return fmt.Sprintf("SALTED-CPU-model(%s, p=%d, %s)", m.Alg, m.workers(), device.PlatformACPU.Name)
}

func (m *ModelBackend) workers() int {
	if m.Workers > 0 {
		return m.Workers
	}
	return device.PlatformACPU.Lanes
}

// anchorSeconds returns the paper's exhaustive d=5 search-only time for
// the algorithm on 64 cores.
func anchorSeconds(alg core.HashAlg) float64 {
	if alg == core.SHA1 {
		return device.AnchorCPUSHA1Seconds
	}
	return device.AnchorCPUSHA3Seconds
}

// Speedup returns the modelled parallel speedup of SALTED-CPU on p EPYC
// cores. The serial fraction is calibrated to §4.3: 59x (SHA-1) and 63x
// (SHA-3) on 64 cores, attributed to early-exit coordination and memory
// contention.
func Speedup(alg core.HashAlg, p int) float64 {
	alpha := (64.0/63.0 - 1.0) / 63.0
	if alg == core.SHA1 {
		alpha = (64.0/59.0 - 1.0) / 63.0
	}
	pf := float64(p)
	return pf / (1 + alpha*(pf-1))
}

// perSeedSeconds returns the modelled per-seed, per-worker cost for the
// given method at the modelled worker count.
//
// The anchor fixes the cost of the best iterator (the Gray / Chase-class
// minimal-change method) on 64 cores; other iterators scale by the
// host-measured ratio of (hash + iterate) work, and other worker counts
// scale by the calibrated Speedup curve.
func (m *ModelBackend) perSeedSeconds(method iterseq.Method) float64 {
	costs := device.MeasureHostCosts()
	hashNs := costs.SHA3Ns
	if m.Alg == core.SHA1 {
		hashNs = costs.SHA1Ns
	}
	factor := (hashNs + costs.IterNs[method]) / (hashNs + costs.IterNs[iterseq.GrayCode])

	// Single-core per-seed time from the 64-core anchor:
	// T(64) = u(5) x s / Speedup(64)  =>  s = anchor x Speedup(64) / u(5).
	s := anchorSeconds(m.Alg) * Speedup(m.Alg, 64) / device.ExhaustiveSeedsD5
	// Per-worker per-seed time at p workers: shell time is
	// (N/p) x perSeed = N x s / Speedup(p), so perSeed = s x p / Speedup(p).
	p := m.workers()
	return s * factor * float64(p) / Speedup(m.Alg, p)
}

// PredictCost implements core.CostModel: the expected modelled time and
// energy of the task on the paper's 64-core EPYC, without touching the
// oracle. Workers take equal shares of each shell, so an early-exit
// search prices the final shell at half a worker's share (the
// uniform-match expectation); every other shell is priced in full.
// Energy uses device.PowerCPUEst — an estimate, since Table 6 reports
// no CPU rows.
func (m *ModelBackend) PredictCost(task core.Task) (core.Cost, error) {
	return predictCost(task, m.workers(), m.perSeedSeconds(task.Method))
}

// Search implements core.Backend with the event-driven model: each shell
// is charged to a modelled clock at the per-seed cost, by the plan's
// match position. The model spends no meaningful host time per shell, so
// cancellation is checked between shells — the finest granularity the
// model distinguishes.
func (m *ModelBackend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	workers := m.workers()
	plans, err := core.PlanShells(task, workers)
	if err != nil {
		return core.Result{}, err
	}
	perSeed := m.perSeedSeconds(task.Method)
	deviceSeconds := 0.0
	res, err := core.SearchBall(ctx, task, core.Engine{
		Name: m.Name(),
		Probe: func(base u256.Uint256) bool {
			deviceSeconds += perSeed
			return core.HashSeed(m.Alg, base).Equal(task.Target)
		},
		Shell: func(_ context.Context, d int, _ time.Time) (core.ShellOutcome, error) {
			p := plans[d-plans[0].Distance]
			out := core.ShellOutcome{Covered: p.Size}
			steps := p.PerWorkerMax
			if p.HasMatch && !task.Exhaustive {
				steps = p.MatchLocal
				out.Covered = p.CoveredAtExit(workers, task.CheckInterval)
			}
			deviceSeconds += float64(steps) * perSeed
			if p.HasMatch {
				// Verify the oracle's claim by hashing the candidate.
				out.Hashed = 1
				out.Found = core.HashSeed(m.Alg, *task.Oracle).Equal(task.Target)
				out.Seed = *task.Oracle
			}
			return out, nil
		},
		Clock: func() float64 { return deviceSeconds },
	})
	// Estimated accounting (device.PowerCPUEst): Table 6 has no CPU rows,
	// so these numbers support the planner's energy policy rather than any
	// paper-table reproduction.
	res.EnergyJoules = device.PowerCPUEst.Energy(res.DeviceSeconds)
	res.PeakWatts = device.PeakCPUEst
	return res, err
}
