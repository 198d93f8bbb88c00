// Package cpu implements SALTED-CPU (paper §3.4): the genuinely executing
// multicore search engine. Workers are goroutines pinned one-to-one onto
// disjoint subranges of each Hamming shell, with an atomic early-exit flag
// in shared memory - the direct Go translation of the paper's OpenMP
// design, including the §3.2.2 fixed-padding hash fast path and the
// §3.2.1 seed iterators.
//
// This backend hashes every seed it covers, so it is exact at any scale
// you are willing to wait for; the experiment harness uses it directly for
// d <= 3 and uses ModelBackend (calibrated to the paper's 64-core EPYC)
// for the d = 5 table reproductions.
package cpu

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rbcsalted/internal/combin"
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
	if task.MaxDistance < 0 || task.MaxDistance > 10 {
		return core.Cost{}, fmt.Errorf("cpu: MaxDistance %d outside supported range", task.MaxDistance)
	}
	costs := device.MeasureHostCosts()
	hashNs := costs.SHA3Ns
	if b.Alg == core.SHA1 {
		hashNs = costs.SHA1Ns
	}
	// The kernel speedup is a ratio of whole-shell throughputs, iteration
	// included on both sides, so it divides the whole scalar per-seed
	// cost: adding the scalar iterator cost on top would count it twice,
	// which a 30x kernel no longer hides.
	perSeed := (hashNs + costs.IterNs[task.Method]) / core.DefaultKernelSpeedup(b.Alg) / 1e9
	workers := uint64(b.workers())
	seconds := 0.0
	if task.IncludeBase() {
		seconds += perSeed
	}
	for d := task.StartShell(); d <= task.MaxDistance; d++ {
		size, ok := combin.Binomial64(256, d)
		if !ok {
			return core.Cost{}, fmt.Errorf("cpu: C(256,%d) overflows uint64", d)
		}
		perWorker := (size + workers - 1) / workers
		seconds += float64(core.ExpectedShellCoverage(task, d, perWorker)) * perSeed
	}
	return core.Cost{
		Seconds: seconds,
		Joules:  device.PowerCPUEst.Energy(seconds),
	}, nil
}

// Search implements core.Backend by actually hashing every covered seed.
// Cancellation is polled in the shell loops every CheckInterval seeds;
// on cancellation the partial Result is returned with ctx.Err().
func (b *Backend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	core.TraceSearchStart(task, b.Name())
	res, err := b.search(ctx, task)
	core.TraceSearchEnd(task, b.Name(), res, err)
	return res, err
}

func (b *Backend) search(ctx context.Context, task core.Task) (core.Result, error) {
	if task.MaxDistance < 0 || task.MaxDistance > 10 {
		return core.Result{}, fmt.Errorf("cpu: MaxDistance %d outside supported range", task.MaxDistance)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	var res core.Result

	// Distance 0: thread 0 checks S_init itself (Algorithm 1 lines 4-8).
	// Skipped when MinDistance says the caller already covered it.
	if task.IncludeBase() {
		res.HashesExecuted++
		res.SeedsCovered++
		if core.HashSeed(b.Alg, task.Base).Equal(task.Target) {
			res.Found = true
			res.Seed = task.Base
			res.Distance = 0
			if !task.Exhaustive {
				res.DeviceSeconds = time.Since(start).Seconds()
				res.WallSeconds = res.DeviceSeconds
				return res, nil
			}
		}
	}

	deadline := time.Time{}
	if task.TimeLimit > 0 {
		deadline = start.Add(task.TimeLimit)
	}

	newMatcher := core.PooledHashMatcherFactory(&b.matchers, b.Alg, task.Target)
	for d := task.StartShell(); d <= task.MaxDistance; d++ {
		shellStart := time.Now()
		found, seed, covered, timedOut, err := core.SearchShellHost(
			ctx, task.Base, d, task.Method, b.workers(), task.EffectiveCheckInterval(),
			task.Exhaustive, deadline, newMatcher)
		st := core.ShellStat{
			Distance:      d,
			SeedsCovered:  covered,
			DeviceSeconds: time.Since(shellStart).Seconds(),
		}
		res.Shells = append(res.Shells, st)
		core.TraceShell(task, b.Name(), st)
		res.SeedsCovered += covered
		res.HashesExecuted += covered
		if found && !res.Found {
			res.Found = true
			res.Seed = seed
			res.Distance = d
		}
		if err != nil {
			res.WallSeconds = time.Since(start).Seconds()
			res.DeviceSeconds = res.WallSeconds
			return res, err
		}
		if timedOut {
			res.TimedOut = true
			break
		}
		if res.Found && !task.Exhaustive {
			break
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	res.DeviceSeconds = res.WallSeconds
	return res, nil
}
