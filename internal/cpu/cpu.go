// Package cpu implements SALTED-CPU (paper §3.4): the genuinely executing
// multicore search engine. Workers are goroutines pinned one-to-one onto
// disjoint subranges of each Hamming shell, with an atomic early-exit flag
// in shared memory - the direct Go translation of the paper's OpenMP
// design, including the §3.2.2 fixed-padding hash fast path and the
// §3.2.1 seed iterators.
//
// This backend hashes every seed it covers, so it is exact at any scale
// you are willing to wait for; the experiment harness uses it directly for
// d <= 3 and uses device.NewEPYC (calibrated to the paper's 64-core EPYC)
// for the d = 5 table reproductions.
package cpu

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
)

// Backend is the real multicore search engine.
type Backend struct {
	// Alg is the hash algorithm the engine searches with.
	Alg core.HashAlg
	// Workers is the thread count p; 0 means GOMAXPROCS.
	Workers int

	// matchers recycles HashMatchers across this backend's searches: each
	// carries ~25KB of batch staging buffers, and a serving CA builds one
	// per worker per search. Pool draws are Reset to the task's
	// (alg, target), so reuse never leaks state across task switches.
	// The zero value works; a Backend must not be copied after first use.
	matchers sync.Pool
}

// Name implements core.Backend.
func (b *Backend) Name() string {
	return fmt.Sprintf("SALTED-CPU(%s, p=%d)", b.Alg, b.workers())
}

func (b *Backend) workers() int {
	if b.Workers > 0 {
		return b.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PredictCost implements core.CostModel: the expected wall time and
// energy of running the search on *this* host, priced from the measured
// host cost table (device.MeasureHostCosts) at the throughput of the
// algorithm's batch kernel as this process runs it, divided across the
// worker count. An early-exit search prices the final shell at half a
// worker's share (the uniform-match expectation). Energy uses the
// device.PowerCPUEst host estimate.
func (b *Backend) PredictCost(task core.Task) (core.Cost, error) {
	costs := device.MeasureHostCosts()
	hashNs := costs.SHA3Ns
	if b.Alg == core.SHA1 {
		hashNs = costs.SHA1Ns
	}
	// The kernel speedup is a ratio of whole-shell throughputs, iteration
	// included on both sides, so it divides the whole scalar per-seed
	// cost: adding the scalar iterator cost on top would count it twice.
	// It is the committed row of the task's iterator: the fill no kernel
	// speeds up is what sets each row.
	perSeed := (hashNs + costs.IterNs[task.Method]) / core.DefaultKernelSpeedup(b.Alg, task.Method) / 1e9
	seconds, err := core.PriceBall(task, uint64(b.workers()), perSeed, func(_ int, _, expect uint64) float64 {
		return float64(expect) * perSeed
	})
	return core.Cost{Seconds: seconds, Joules: device.PowerCPUEst.Energy(seconds)}, err
}

// Search implements core.Backend by actually hashing every covered seed:
// core.SearchHost on b's worker count, matchers drawn from b's pool.
// Cancellation is polled in the shell loops every CheckInterval seeds.
func (b *Backend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	return core.SearchHost(ctx, task, b.Name(), b.workers(), core.HashProbe(b.Alg, task.Target),
		core.PooledHashMatcherFactory(&b.matchers, b.Alg, task.Target))
}
