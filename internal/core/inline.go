package core

import (
	"context"
	"fmt"
	"sync"
)

// The distance-progressive fast path: a healthy PUF authenticates at
// small Hamming distance almost always, and shells d <= 1 are a few
// hundred candidates — microseconds on the host BatchMatcher. Running
// them inline on the caller's goroutine means the common case never
// takes a queue slot, never waits behind a d=5 straggler, and never
// pays a dispatch round-trip; only the rare large-distance tail
// escalates to the configured backend (with Task.MinDistance set so the
// inline shells are not re-covered).

// Inline-depth policy values for CAConfig.InlineDepth.
const (
	// DefaultInlineDepth covers shells d <= 1 inline: the base probe
	// and at most four 64-candidate batches, stopping after the batch
	// that holds the winner.
	DefaultInlineDepth = 1
	// MaxInlineDepth bounds the inline budget: C(256,2) = 32640
	// candidates is already milliseconds of caller-goroutine work;
	// anything larger belongs on a backend.
	MaxInlineDepth = 2
	// InlineDisabled turns the inline fast path off entirely; every
	// authentication goes to the backend (the pre-progressive behaviour).
	InlineDisabled = -1
)

// InlineName is the backend name stamped on trace events emitted by the
// inline fast path.
const InlineName = "inline-host"

// inlineMatchers recycles the inline path's matchers across requests.
// Almost every authentication is served here, and an unpooled matcher is
// ~25 KB of batch staging buffers allocated per request.
var inlineMatchers sync.Pool

// SearchInline covers shells 0..depth of task synchronously on the
// calling goroutine: the host engine (SearchHost) at one worker, its
// matchers drawn from a package pool. It is the first stage of the
// distance-progressive serving path: the caller escalates to a real
// backend with task.MinDistance = depth+1 only when SearchInline
// neither finds the seed nor exhausts the ball.
//
// depth is clamped to task.MaxDistance. Cancellation is polled every
// CheckInterval seeds, like any backend; the partial Result is returned
// with ctx.Err().
func SearchInline(ctx context.Context, task Task, depth int) (Result, error) {
	if depth > task.MaxDistance {
		depth = task.MaxDistance
	}
	if depth > MaxInlineDepth {
		return Result{}, fmt.Errorf("core: inline depth %d exceeds maximum %d", depth, MaxInlineDepth)
	}
	task.MaxDistance = depth
	alg := task.Target.Alg
	// SearchShellHost releases each matcher it draws when its worker
	// returns — found, exhausted, timed out or cancelled alike.
	return SearchHost(ctx, task, InlineName, 1, HashProbe(alg, task.Target),
		PooledHashMatcherFactory(&inlineMatchers, alg, task.Target))
}
