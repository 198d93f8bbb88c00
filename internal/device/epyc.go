package device

import (
	"fmt"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/iterseq"
)

// SALTED-CPU on the paper's PlatformA (2x AMD EPYC 7542, 64 cores),
// reproduced as an event model: the match position is located
// analytically from the oracle and verified by one hash, per-seed cost
// ratios between hash algorithms and seed iterators are measured on the
// host, and the absolute scale is pinned to the paper's Table 5 anchors.
// The genuinely executing multicore engine is internal/cpu.

// EPYCSpeedup returns the modelled parallel speedup of SALTED-CPU on p
// EPYC cores. The serial fraction is calibrated to §4.3: 59x (SHA-1) and
// 63x (SHA-3) on 64 cores, attributed to early-exit coordination and
// memory contention.
func EPYCSpeedup(alg core.HashAlg, p int) float64 {
	alpha := (64.0/63.0 - 1.0) / 63.0
	if alg == core.SHA1 {
		alpha = (64.0/59.0 - 1.0) / 63.0
	}
	pf := float64(p)
	return pf / (1 + alpha*(pf-1))
}

// NewEPYC builds the 64-core EPYC model for alg, priced from the host
// cost table costs. Workers take equal contiguous partitions of each
// shell and poll a shared exit flag every task.CheckInterval seeds.
// Energy uses PowerCPUEst — an estimate, since Table 6 reports no CPU
// rows.
func NewEPYC(alg core.HashAlg, costs cpu.HostCosts) *Engine {
	p := PlatformACPU.Lanes
	anchor, hashNs := AnchorCPUSHA3Seconds, costs.SHA3Ns
	if alg == core.SHA1 {
		anchor, hashNs = AnchorCPUSHA1Seconds, costs.SHA1Ns
	}
	// Single-core per-seed time from the 64-core anchor:
	// T(64) = u(5) x s / Speedup(64)  =>  s = anchor x Speedup(64) / u(5).
	s := anchor * EPYCSpeedup(alg, 64) / ExhaustiveSeedsD5
	// The anchor fixes the cost of the best iterator (the Chase-class
	// minimal-change method); other iterators scale by the host-measured
	// ratio of (hash + iterate) work. Per-worker per-seed time at p
	// workers: shell time is (N/p) x perSeed = N x s / Speedup(p), so
	// perSeed = s x p / Speedup(p).
	perSeed := func(method iterseq.Method) float64 {
		factor := (hashNs + costs.IterNs[method]) / (hashNs + costs.IterNs[iterseq.GrayCode])
		return s * factor * float64(p) / EPYCSpeedup(alg, p)
	}
	return &Engine{d: Description{
		Config:    Config{Alg: alg}.withDefaults(),
		name:      fmt.Sprintf("SALTED-CPU-model(%s, p=%d, %s)", alg, p, PlatformACPU.Name),
		power:     PowerCPUEst,
		peakWatts: PeakCPUEst,
		lanes:     uint64(p),
		seconds: func(task core.Task, _, steps uint64) float64 {
			return float64(steps) * perSeed(task.Method)
		},
		exit: partitionExit(uint64(p)),
	}}
}

// partitionExit is the exit rule of `workers` lockstep workers over
// iterseq.Partition's split of a shell (the first size%workers workers
// take one seed more). The finding worker stops at the match; every
// other worker runs on to its next poll of the exit flag, every
// task.CheckInterval seeds (at least 1), but never past its own share.
func partitionExit(workers uint64) func(task core.Task, size, rank uint64) (uint64, uint64) {
	return func(task core.Task, size, rank uint64) (uint64, uint64) {
		share, extra := size/workers, size%workers
		var local uint64 // seeds the finding worker hashes, match included
		if long := extra * (share + 1); rank < long {
			local = rank%(share+1) + 1
		} else {
			local = (rank-long)%share + 1
		}
		lag := local + uint64(max(task.CheckInterval, 1)) - 1
		others := min(lag, (size+workers-1)/workers)
		return local, min(local+(workers-1)*others, size)
	}
}
