package core

import (
	"context"
	"time"

	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/u256"
)

// Task describes one RBC search: recover the seed whose digest matches the
// client's within a Hamming ball around the enrolled image.
type Task struct {
	// Base is S_init, derived from the server's PUF image.
	Base u256.Uint256
	// Target is M_1, the digest the client sent.
	Target Digest
	// MaxDistance is the largest Hamming distance searched (inclusive).
	// All shells MinDistance..MaxDistance are covered, in order.
	MaxDistance int
	// MinDistance is the smallest Hamming distance searched. Zero (the
	// default) starts with the distance-0 base probe; a positive value
	// skips the shells below it — the distance-progressive serving path
	// sets MinDistance after covering d <= CA InlineDepth inline on the
	// host, so the escalated backend search never re-covers them. See
	// StartShell.
	MinDistance int
	// Method selects the seed-iteration algorithm (paper §3.2.1).
	Method iterseq.Method
	// Exhaustive disables the early exit: every shell up to MaxDistance is
	// fully covered even after a match, giving the upper-bound timing of
	// Equation 1. The match is still reported.
	Exhaustive bool
	// CheckInterval is the number of seeds a worker hashes between polls
	// of the early-exit flag, the context, and the deadline (paper §4.4).
	// Zero means DefaultCheckInterval; see EffectiveCheckInterval. The
	// host engine rounds it up to whole MatchWidth batches.
	CheckInterval int
	// TimeLimit is the authentication threshold T. Zero means no limit.
	// Backends stop and report !Found when modelled time exceeds it.
	TimeLimit time.Duration
	// Class is the request's QoS class (see QoSClass); the scheduler
	// orders its admission queues by it. Zero is ClassInteractive.
	Class QoSClass
	// Deadline, when non-zero, is the absolute wall-clock time by which
	// the caller needs the result. The scheduler refuses tasks it cannot
	// finish in time (ErrDeadlineInfeasible) and caps the derived
	// TimeLimit+grace search deadline at it.
	Deadline time.Time
	// Oracle optionally carries the ground-truth client seed for
	// event-driven simulators: it lets a modelled device locate the match
	// analytically instead of hashing billions of candidates on the host.
	// Backends must verify (by hashing) any match the oracle suggests,
	// and must never report a match that hashing does not confirm.
	Oracle *u256.Uint256
	// Trace, when non-nil, receives this search's trace events: the
	// scheduler's queue transitions plus every backend's start/end and
	// per-shell progress (see the Trace* helpers). Nil disables tracing
	// at near-zero cost.
	Trace obs.TraceSink
	// TraceID correlates this search's trace events. The scheduler
	// stamps a unique ID onto tasks that arrive without one; direct
	// backend callers may set their own.
	TraceID uint64
}

// DefaultCheckInterval is the early-exit poll interval applied when a
// Task leaves CheckInterval at zero.
//
// The paper's §4.4 flag-interval sweep found intervals from 1 to 64
// seeds indistinguishable on the GPU (the flag stays cached), so the
// interval trades nothing below ~10^3: polling costs an atomic load, a
// channel select and a time.Now() call, which at interval 1 can rival
// the hash itself, while the only price of a longer interval is
// early-exit latency - a worker overshoots a peer's match by at most
// one interval (microseconds at host hash rates). 1024 keeps the poll
// overhead under 0.1% of hot-loop time and is a whole multiple of
// MatchWidth, so the batched engine polls every 4 wide batches exactly.
const DefaultCheckInterval = 1024

// EffectiveCheckInterval returns CheckInterval with the unset (zero or
// negative) value normalized to DefaultCheckInterval. Backends pass this
// - not the raw field - to the host execution engine, so the default is
// decided in exactly one place.
func (t Task) EffectiveCheckInterval() int {
	if t.CheckInterval < 1 {
		return DefaultCheckInterval
	}
	return t.CheckInterval
}

// StartShell returns the first Hamming shell (>= 1) a backend's shell
// loop must cover, normalizing a negative MinDistance to the default.
// The distance-0 base probe is separate: run it iff IncludeBase.
func (t Task) StartShell() int {
	if t.MinDistance < 1 {
		return 1
	}
	return t.MinDistance
}

// IncludeBase reports whether the search covers the distance-0 base
// probe (false when MinDistance skips past it).
func (t Task) IncludeBase() bool { return t.MinDistance <= 0 }

// Result reports the outcome and cost of one RBC search.
type Result struct {
	// Found reports whether a seed hashing to Target was located.
	Found bool
	// Seed is the recovered seed when Found.
	Seed u256.Uint256
	// Distance is the Hamming distance at which the seed was found.
	Distance int
	// SeedsCovered counts the candidate seeds the search accounts for.
	// For exhaustive searches this is u(MaxDistance); for early-exit
	// searches it is the number of seeds covered before termination.
	SeedsCovered uint64
	// HashesExecuted counts digests actually computed on the host. Real
	// backends hash everything they cover; modelled backends hash a
	// validation sample plus the verified match.
	HashesExecuted uint64
	// DeviceSeconds is the modelled search-only time on the backend's
	// device. For real backends it equals the measured wall time.
	DeviceSeconds float64
	// WallSeconds is host wall-clock time actually spent.
	WallSeconds float64
	// EnergyJoules and PeakWatts report the device power model's
	// accounting; zero when the backend has no power model.
	EnergyJoules float64
	PeakWatts    float64
	// TimedOut reports that the search stopped at TimeLimit.
	TimedOut bool
	// Shells breaks the search down per Hamming distance, in the order
	// the shells were processed (the distance-0 probe is not included).
	Shells []ShellStat
}

// ShellStat is one Hamming shell's contribution to a search.
type ShellStat struct {
	// Distance is the shell's Hamming distance.
	Distance int
	// SeedsCovered is the number of candidates accounted for in this
	// shell.
	SeedsCovered uint64
	// DeviceSeconds is the modelled (or, for real backends, measured)
	// time spent in this shell.
	DeviceSeconds float64
}

// Backend is a search engine bound to a hash algorithm and a hardware
// platform (real or modelled).
type Backend interface {
	// Name identifies the engine and platform for reports.
	Name() string
	// Search runs one RBC search to completion, timeout or cancellation.
	//
	// Cancellation contract: backends poll ctx cooperatively (at the same
	// granularity as the early-exit flag, i.e. every CheckInterval seeds
	// for real execution, between shells for modelled execution) and stop
	// promptly when it is cancelled or its deadline passes.
	//
	// Error policy, one for every engine (SearchBall implements it): when
	// a search ends early — ctx.Err() or an engine's own failure alike —
	// Search returns the partial Result accumulated so far together with
	// the error. Callers that care about partial telemetry (the
	// scheduler's accounting) may inspect the Result whatever the error.
	Search(ctx context.Context, task Task) (Result, error)
}
