package core

import (
	"context"
	"fmt"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/u256"
)

// Algorithm 1 (paper §3.4) is one search — probe S_init, then cover the
// Hamming shells d = 1..MaxDistance until a digest matches — evaluated on
// several engines. SearchBall is that search; an engine is what differs:
// how it decides the base probe, how it covers one shell, and which clock
// its time is read from.

// maxSearchDistance is the largest MaxDistance any engine accepts: the
// shell sizes C(256, d) the walks below handle stay far inside uint64.
const maxSearchDistance = 10

func checkMaxDistance(d int) error {
	if d < 0 || d > maxSearchDistance {
		return fmt.Errorf("core: MaxDistance %d outside supported range [0,%d]", d, maxSearchDistance)
	}
	return nil
}

// Engine is what a search engine supplies to SearchBall. The closures
// belong to one search, so they may carry its state (a modelled clock,
// an event plan).
type Engine struct {
	// Name labels the search's trace events.
	Name string
	// Probe reports whether the base seed itself matches. It is a
	// predicate, not a digest compare, so engines that match on
	// something other than Task.Target (a generated public key) fit.
	Probe func(base u256.Uint256) bool
	// Shell covers the Hamming shell at distance d: all of it for an
	// exhaustive task, up to the match otherwise. An engine that runs on
	// the wall clock stops at deadline (zero: none) and reports
	// TimedOut. On error it returns what it covered so far.
	Shell func(ctx context.Context, d int, deadline time.Time) (ShellOutcome, error)
	// Clock is the engine's modelled device clock, in seconds since the
	// search began. Nil means device time is wall time. SearchBall reads
	// it around every shell (the difference is the shell's
	// DeviceSeconds), holds it against Task.TimeLimit after every shell,
	// and takes the last reading as Result.DeviceSeconds — so a modelled
	// engine charges its clock inside Probe and Shell and reports no
	// times of its own.
	Clock func() float64
}

// ShellOutcome is what covering one shell yields.
type ShellOutcome struct {
	// Found and Seed report a match in this shell.
	Found bool
	Seed  u256.Uint256
	// Covered is the number of candidates the shell accounts for;
	// Hashed is how many digests were computed on the host to do so
	// (equal on real engines, a verification and a sample on models).
	Covered, Hashed uint64
	// TimedOut reports that the shell stopped at the deadline.
	TimedOut bool
}

// HashProbe is the base probe of every hashing engine: does the seed's
// digest under alg equal target.
func HashProbe(alg HashAlg, target Digest) func(u256.Uint256) bool {
	return func(s u256.Uint256) bool { return HashSeed(alg, s).Equal(target) }
}

// SearchBall runs Algorithm 1 for task on eng. It owns everything that
// is the search and not the engine: the MaxDistance range check, the
// trace events, the base probe (iff task.IncludeBase), the shell loop
// from task.StartShell with a ctx check between shells, per-shell stats,
// coverage accounting, first-match-wins and early exit, TimeLimit, and
// the clocks. Whatever stops the search — match, exhaustion, time limit,
// cancellation or an engine error — the Result holds everything
// accounted for up to that point, and the error, if any, comes with it.
func SearchBall(ctx context.Context, task Task, eng Engine) (Result, error) {
	if err := checkMaxDistance(task.MaxDistance); err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	clock := eng.Clock
	if clock == nil {
		clock = func() float64 { return time.Since(start).Seconds() }
	}
	overLimit := func() bool {
		return eng.Clock != nil && task.TimeLimit > 0 && eng.Clock() > task.TimeLimit.Seconds()
	}
	var deadline time.Time
	if task.TimeLimit > 0 {
		deadline = start.Add(task.TimeLimit)
	}

	TraceSearchStart(task, eng.Name)
	var res Result
	var err error
	if task.IncludeBase() {
		res.HashesExecuted++
		res.SeedsCovered++
		if eng.Probe(task.Base) {
			res.Found = true
			res.Seed = task.Base
		}
	}
	for d := task.StartShell(); d <= task.MaxDistance && !(res.Found && !task.Exhaustive); d++ {
		if err = ctx.Err(); err != nil {
			break
		}
		before := clock()
		var out ShellOutcome
		out, err = eng.Shell(ctx, d, deadline)
		st := ShellStat{Distance: d, SeedsCovered: out.Covered, DeviceSeconds: clock() - before}
		res.Shells = append(res.Shells, st)
		TraceShell(task, eng.Name, st)
		res.SeedsCovered += out.Covered
		res.HashesExecuted += out.Hashed
		if out.Found && !res.Found {
			res.Found = true
			res.Seed = out.Seed
			res.Distance = d
		}
		if err != nil {
			break
		}
		if out.TimedOut || overLimit() {
			res.TimedOut = true
			break
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	res.DeviceSeconds = res.WallSeconds
	if eng.Clock != nil {
		res.DeviceSeconds = eng.Clock()
		res.TimedOut = res.TimedOut || overLimit()
	}
	TraceSearchEnd(task, eng.Name, res, err)
	return res, err
}

// Continue resumes task past the shells done finished: Algorithm 1
// covers the ball one shell at a time, so a search stopped short — the
// inline shells, a straggling flight the scheduler cancelled — goes on
// at a shell boundary instead of starting over. A shell counts as
// finished when done covered all C(256, d) of its seeds, and only an
// unbroken run from task.StartShell counts; the base probe counts as run
// when done covered a seed outside its shells. search covers the rest
// with MinDistance at the first shell not finished, and the Result folds
// both: an unfinished shell leaves SeedsCovered and Shells, since search
// covers it again in full, but stays in HashesExecuted, since that work
// was done.
func Continue(ctx context.Context, task Task, done Result, search func(context.Context, Task) (Result, error)) (Result, error) {
	var inShells uint64
	for _, st := range done.Shells {
		inShells += st.SeedsCovered
	}
	kept := 0
	if !task.IncludeBase() || done.SeedsCovered > inShells {
		for ; kept < len(done.Shells); kept++ {
			st := done.Shells[kept]
			size, _ := combin.Binomial64(256, st.Distance)
			if st.Distance != task.StartShell()+kept || st.SeedsCovered != size {
				break
			}
		}
		task.MinDistance = task.StartShell() + kept
	}
	covered := done.SeedsCovered
	for _, st := range done.Shells[kept:] {
		covered -= st.SeedsCovered
	}

	res, err := search(ctx, task)
	res.SeedsCovered += covered
	res.HashesExecuted += done.HashesExecuted
	res.WallSeconds += done.WallSeconds
	res.DeviceSeconds += done.DeviceSeconds
	res.EnergyJoules += done.EnergyJoules
	res.PeakWatts = max(res.PeakWatts, done.PeakWatts)
	res.Shells = append(done.Shells[:kept:kept], res.Shells...)
	return res, err
}

// SearchHost runs Algorithm 1 for real on this host: every shell is
// covered by SearchShellHost on `workers` goroutines drawing matchers
// from newMatcher. The inline fast path, the multicore engine and the
// algorithm-aware baseline are this function at different worker counts
// and matchers.
func SearchHost(ctx context.Context, task Task, name string, workers int, probe func(u256.Uint256) bool, newMatcher MatcherFactory) (Result, error) {
	return SearchBall(ctx, task, Engine{
		Name:  name,
		Probe: probe,
		Shell: func(ctx context.Context, d int, deadline time.Time) (ShellOutcome, error) {
			found, seed, covered, timedOut, err := SearchShellHost(
				ctx, task.Base, d, task.Method, workers, task.EffectiveCheckInterval(),
				task.Exhaustive, deadline, newMatcher)
			return ShellOutcome{Found: found, Seed: seed, Covered: covered, Hashed: covered, TimedOut: timedOut}, err
		},
	})
}
