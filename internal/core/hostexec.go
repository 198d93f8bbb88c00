package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/u256"
)

// SearchShellHost covers one Hamming-distance shell on the host with real
// execution: `workers` goroutines over disjoint subranges of the shell.
// It is the execution engine behind the real CPU backend and the
// validation paths of the device simulators.
//
// Each worker builds its own Matcher from newMatcher. When the matcher
// implements BatchMatcher (the HashMatcherFactory default), the
// iterator's flip masks are drained BatchWidth at a time and matched one
// batch per call: per 64 seeds, eight 8-way Keccak compressions (SHA-3)
// or sixteen 4-way multi-buffer compressions (SHA-1). Partial tail batches go through the same engine (padded
// internally). Scalar-only matchers follow the classic one-seed loop.
//
// The early-exit flag, ctx and the deadline are polled every checkEvery
// candidates, rounded up to whole batches on the batched path; a
// checkEvery below 1 means DefaultCheckInterval. On cancellation the
// shell stops within one interval per worker and the partial covered
// count is returned alongside ctx.Err().
func SearchShellHost(ctx context.Context, base u256.Uint256, d int, method iterseq.Method, workers, checkEvery int, exhaustive bool, deadline time.Time, newMatcher MatcherFactory) (found bool, seed u256.Uint256, covered uint64, timedOut bool, err error) {
	total, ok := combin.Binomial64(256, d)
	if !ok {
		// Partition reports the precise error for the callers' benefit.
		_, err := iterseq.Partition(256, d, max(workers, 1))
		return false, u256.Zero, 0, false, err
	}
	return SearchRangeHost(ctx, base, d, method, 0, total, workers, checkEvery, exhaustive, deadline, newMatcher)
}

// SearchRangeHost covers ranks [startRank, startRank+count) of one shell
// (in the method's own order) with the same engine as SearchShellHost,
// splitting the range evenly over min(workers, count) shares. A single
// share runs on the calling goroutine, so a 1-worker search (the inline
// fast path's) starts none; more run on a goroutine each while the caller
// waits. The device simulators use it to execute a sampled prefix of a
// shell they otherwise cover analytically.
func SearchRangeHost(ctx context.Context, base u256.Uint256, d int, method iterseq.Method, startRank, count uint64, workers, checkEvery int, exhaustive bool, deadline time.Time, newMatcher MatcherFactory) (found bool, seed u256.Uint256, covered uint64, timedOut bool, err error) {
	if count == 0 {
		return false, u256.Zero, 0, false, nil
	}
	parts := workers
	if parts < 1 {
		parts = 1
	}
	if uint64(parts) > count {
		parts = int(count)
	}
	if checkEvery < 1 {
		checkEvery = DefaultCheckInterval
	}

	var (
		stop       atomic.Bool
		timeout    atomic.Bool
		cancelled  atomic.Bool
		totalSeeds atomic.Uint64
		mu         sync.Mutex
		wg         sync.WaitGroup
		firstErr   error
	)
	foundSeeds := make([]u256.Uint256, 0, 1)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}

	// work covers one share of the range.
	work := func(start, length uint64) {
		it, iterErr := iterseq.New(method, 256, d, start, int64(length))
		if iterErr != nil {
			// Fail the whole shell cleanly instead of panicking the
			// process: record the first error and stop the peers.
			mu.Lock()
			if firstErr == nil {
				firstErr = iterErr
			}
			mu.Unlock()
			stop.Store(true)
			return
		}
		m := newMatcher()
		if r, ok := m.(MatcherReleaser); ok {
			// Pooled matchers go back to their pool when the worker
			// is done with them.
			defer r.ReleaseMatcher()
		}

		// poll checks the stop flag, ctx and deadline; it reports
		// whether the worker should bail out.
		poll := func() bool {
			if !exhaustive && stop.Load() {
				return true
			}
			if done != nil {
				select {
				case <-done:
					cancelled.Store(true)
					stop.Store(true)
				default:
				}
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				timeout.Store(true)
				stop.Store(true)
			}
			return timeout.Load() || cancelled.Load()
		}
		record := func(cand u256.Uint256) {
			mu.Lock()
			foundSeeds = append(foundSeeds, cand)
			mu.Unlock()
		}

		local := uint64(0)
		if bm, batched := m.(BatchMatcher); batched {
			// Batched hot loop: fill the engine's preferred stride of
			// flip masks from the iterator, match them in one call,
			// and poll per batch rather than per seed. Partial batches
			// (the range tail) go through the same MatchMasks - the
			// engine pads internally - so no candidate ever drops to
			// the scalar path. Candidates are only materialized (one
			// 256-bit XOR) for recorded hits.
			width := bm.BatchWidth()
			if width < 1 || width > MatchWidth {
				width = MatchWidth
			}
			pollEvery := (checkEvery + width - 1) / width
			var masks *[MatchWidth]u256.Uint256
			if s, ok := bm.(batchStager); ok {
				masks = s.batchStage()
			} else {
				masks = new([MatchWidth]u256.Uint256)
			}
			// Batch-phase timing samples the first batch after each
			// poll and weighs it by the batches of its interval.
			hbm := loadHostBatchMetrics()
			pt, packTimed := bm.(packTimer)
			var fillNs, packNs int64
			sinceCheck := 0
			for {
				sample := hbm != nil && sinceCheck == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				n := it.FillMasks(masks[:width])
				if sample {
					fillNs = time.Since(t0).Nanoseconds()
				}
				if n == 0 {
					break
				}
				var hits MatchMask
				if sample && packTimed {
					hits, packNs = pt.matchMasksTimed(base, masks, n)
				} else {
					hits = bm.MatchMasks(base, masks, n)
				}
				sinceCheck++
				if hits.Any() {
					if !exhaustive {
						// Early exit: only candidates at or before the
						// winning lane count as covered, so the batched
						// engine's accounting is lane-exact and agrees
						// with the scalar oracle and the modelled
						// backends (covered = rank + 1).
						win := hits.FirstLane()
						record(iterseq.ApplyMask(base, masks[win]))
						local += uint64(win) + 1
						stop.Store(true)
						break
					}
					local += uint64(n)
					for lane := hits.FirstLane(); lane >= 0; lane = hits.FirstLane() {
						record(iterseq.ApplyMask(base, masks[lane]))
						hits.ClearBit(lane)
					}
				} else {
					local += uint64(n)
				}
				if n < width {
					break // iterator exhausted mid-batch
				}
				if sinceCheck >= pollEvery {
					hbm.observe(fillNs, packNs, sinceCheck, packTimed)
					sinceCheck = 0
					if poll() {
						break
					}
				}
			}
			hbm.observe(fillNs, packNs, sinceCheck, packTimed)
		} else {
			// Scalar loop: one 256-bit XOR and one Match per seed,
			// the iterator drained a batch of one at a time.
			var mask [1]u256.Uint256
			sinceCheck := 0
			for it.FillMasks(mask[:]) == 1 {
				candidate := iterseq.ApplyMask(base, mask[0])
				local++
				if m.Match(candidate) {
					record(candidate)
					if !exhaustive {
						stop.Store(true)
						break
					}
				}
				sinceCheck++
				if sinceCheck >= checkEvery {
					sinceCheck = 0
					if poll() {
						break
					}
				}
			}
		}
		totalSeeds.Add(local)
	}

	if parts == 1 {
		work(startRank, count)
	} else {
		// The caller does not take a share itself. The goroutine it
		// started last would wait in its P's runnext slot, which an idle
		// P steals only after a back-off; a two-worker d = 1 shell ran
		// 8–11 % slower that way than with the caller parked (2-vCPU
		// guest, ten alternated runs each). parts <= count, so every
		// share holds at least one rank.
		share := count / uint64(parts)
		extra := count % uint64(parts)
		offset := startRank
		for p := 0; p < parts; p++ {
			length := share
			if uint64(p) < extra {
				length++
			}
			start := offset
			offset += length
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(start, length)
			}()
		}
		wg.Wait()
	}

	covered = totalSeeds.Load()
	if firstErr != nil {
		return false, u256.Zero, covered, false, firstErr
	}
	if len(foundSeeds) > 0 {
		found = true
		seed = foundSeeds[0]
	}
	if cancelled.Load() && !found {
		return false, u256.Zero, covered, timeout.Load(), ctx.Err()
	}
	return found, seed, covered, timeout.Load(), nil
}

// VerifyOracle is how a model locates a match in a shell it does not
// execute: if the task's oracle lies at distance d, one hash checks it
// against the target. Covered is left for the caller's model.
func VerifyOracle(task Task, alg HashAlg, d int) ShellOutcome {
	var out ShellOutcome
	if task.Oracle != nil && MatchShell(task.Base, *task.Oracle) == d {
		out.Hashed = 1
		if HashSeed(alg, *task.Oracle).Equal(task.Target) {
			out.Found, out.Seed = true, *task.Oracle
		}
	}
	return out
}

// simSampleSeeds is the validation sample of real work executed from the
// front of every analytically planned shell, so a modelled shell is
// backed by executed code on every search.
const simSampleSeeds = 512

// SearchShellSim is the real execution under one shell of a simulated
// engine. A shell of at most budget seeds is covered for real, like any
// host shell, on hostWorkers goroutines (0 means GOMAXPROCS). A larger
// one is planned analytically: the task's oracle, if it lies in this
// shell, is verified by hashing, and a validation sample from the front
// of the shell runs through the engine's matcher. Found, Seed and Hashed
// of the outcome are set; Covered is for the caller's model to decide,
// except on error, where it is what was hashed before the shell was
// abandoned (no modelled charge: the kernel did not complete).
func SearchShellSim(ctx context.Context, task Task, alg HashAlg, d int, size, budget uint64, hostWorkers, checkEvery int, newMatcher MatcherFactory) (ShellOutcome, error) {
	var out ShellOutcome
	if size <= budget {
		if hostWorkers < 1 {
			hostWorkers = runtime.GOMAXPROCS(0)
		}
		var err error
		out.Found, out.Seed, out.Hashed, _, err = SearchShellHost(
			ctx, task.Base, d, task.Method, hostWorkers, checkEvery, task.Exhaustive, time.Time{}, newMatcher)
		if err != nil {
			out.Covered = out.Hashed
		}
		return out, err
	}
	out = VerifyOracle(task, alg, d)
	found, seed, sampled, _, err := SearchRangeHost(
		ctx, task.Base, d, task.Method, 0, min(simSampleSeeds, size), 1, checkEvery, true, time.Time{}, newMatcher)
	out.Hashed += sampled
	if found && !out.Found {
		out.Found, out.Seed = true, seed
	}
	return out, err
}
