// Package sched is the multi-tenant authentication scheduler: a bounded
// worker pool over a core.Backend with class-aware admission queues,
// per-search deadline enforcement and cooperative cancellation.
//
// The paper's engines maximise the throughput of ONE Hamming-ball search;
// a serving CA needs many independent searches in flight without letting
// an unbounded goroutine pile-up destroy the latency of all of them. The
// Scheduler provides the admission-control layer: at most Workers
// searches run concurrently; waiting searches sit in one FIFO queue per
// QoS class (interactive first, background last), with priority aging
// promoting long-waiting work one level per AgingStep so nothing
// starves. Admission is deadline-aware — a search whose deadline cannot
// be met is refused with ErrDeadlineInfeasible instead of wasting a
// queue slot — and when the queues are full an arriving search may evict
// the worst queued one (lowest class, largest distance bound, loosest
// deadline) so overload sheds the d-large tail first.
//
// Scheduler itself implements core.Backend, so it composes with
// everything that takes one: a CA can authenticate through a scheduled
// CPU engine, or even a scheduler over another scheduler (e.g. a small
// high-priority pool in front of a large shared one).
package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/obs"
)

// Sentinel errors. All are returned unwrapped from Search's admission
// path, so errors.Is works without unwrapping.
var (
	// ErrOverloaded reports that the admission queues were full and the
	// search was not strictly better than anything queued: it was
	// rejected (or, for a queued search, evicted) without service.
	// Callers should shed load or retry with backoff; netproto maps it
	// to StatusOverloaded on the wire.
	ErrOverloaded = errors.New("sched: admission queue full")
	// ErrClosed reports a Search submitted after Close.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrDeadlineInfeasible reports that the search's absolute deadline
	// was already unreachable at admission (past, or closer than the
	// scheduler's service estimate), or passed while the search waited
	// in the queue. The work was refused before burning backend time;
	// netproto maps it to StatusDeadlineInfeasible.
	ErrDeadlineInfeasible = errors.New("sched: deadline infeasible")
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultWorkers is the default concurrent-search limit. Each search
	// fans out internally over the backend's own worker goroutines, so
	// the pool is deliberately small.
	DefaultWorkers = 4
	// DefaultQueueDepth is the default admission-queue capacity (summed
	// across all classes).
	DefaultQueueDepth = 64
	// DefaultAgingStep is the queue wait that promotes a waiting search
	// one QoS level: a background search that has waited two steps
	// competes as interactive, so sustained high-priority load cannot
	// starve it forever.
	DefaultAgingStep = 2 * time.Second
	// DefaultDeadlineGrace is the default slack between a task's
	// TimeLimit and the enforced wall-clock deadline.
	DefaultDeadlineGrace = 500 * time.Millisecond

	// admitWarmup is the number of served searches before the admission
	// controller trusts its service-time estimate enough to refuse
	// not-yet-expired deadlines; until then only already-past deadlines
	// are refused.
	admitWarmup = 8
	// maxMetricDistance is the largest MaxDistance with its own service
	// histogram ("sched.service_seconds.maxd10"), core's supported range.
	maxMetricDistance = 10
)

// Config sizes a Scheduler.
type Config struct {
	// Workers is the number of searches run concurrently; 0 means
	// DefaultWorkers.
	Workers int
	// QueueDepth is the admission capacity summed over all class queues;
	// 0 means DefaultQueueDepth. A search arriving with Workers busy and
	// QueueDepth waiting is admitted only by evicting a strictly worse
	// queued search; otherwise it is rejected with ErrOverloaded.
	QueueDepth int
	// DeadlineGrace pads the wall-clock deadline derived from a task's
	// TimeLimit, leaving backends room to report a modelled timeout as a
	// TimedOut Result before the hard context deadline cuts the search
	// off. The derived deadline never extends an earlier caller deadline
	// (the task's absolute Deadline or the submission context's): the
	// effective deadline is the minimum. 0 means DefaultDeadlineGrace;
	// negative disables the derived deadline entirely (caller deadlines
	// still apply).
	DeadlineGrace time.Duration
	// AgingStep is the queue wait that promotes a waiting search one QoS
	// level (see DefaultAgingStep); 0 means the default, negative
	// disables aging (strict priority, background may starve).
	AgingStep time.Duration
	// Trace, when non-nil, receives queue-lifecycle trace events
	// (enqueue, dequeue, reject, shed, discard, done) for every
	// scheduled search, and is stamped onto tasks that arrive without
	// their own sink so backend events share it.
	Trace obs.TraceSink
	// Metrics, when non-nil, publishes the latency histograms — overall
	// ("sched.queue_wait_seconds", "sched.service_seconds"), per class
	// ("sched.queue_wait_seconds.interactive", ...) and per distance
	// bound ("sched.service_seconds.maxd3", ...) — plus the shed and
	// deadline-infeasible counters into the registry. The counter
	// snapshot remains available through Stats.
	Metrics *obs.Registry
}

// Outcome classifies how a scheduled search ended.
type Outcome int

// String names the outcome for trace events and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeTimedOut:
		return "timed-out"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeFailed:
		return "failed"
	default:
		return fmt.Sprintf("outcome-%d", int(o))
	}
}

// Outcomes, in Stats order.
const (
	// OutcomeCompleted: the backend returned a Result (found or not).
	OutcomeCompleted Outcome = iota
	// OutcomeTimedOut: the backend returned a Result with TimedOut set.
	OutcomeTimedOut
	// OutcomeCancelled: the search's context was cancelled or its
	// deadline passed, before or during the search.
	OutcomeCancelled
	// OutcomeFailed: the backend returned a non-context error.
	OutcomeFailed
)

// ClassStats is one QoS class's slice of the scheduler counters.
type ClassStats struct {
	// Submitted counts searches of this class admitted to the queue;
	// Rejected counts refusals (overload or infeasible deadline).
	Submitted uint64
	Rejected  uint64
	// Served counts searches of this class that reached the backend.
	Served uint64
	// Shed counts searches of this class evicted from the queue by
	// admission control to make room for strictly better work.
	Shed uint64
}

// Stats is a point-in-time snapshot of a Scheduler's counters.
type Stats struct {
	// Submitted counts searches admitted to the queue. Rejected counts
	// searches refused with ErrOverloaded (not included in Submitted).
	Submitted uint64
	Rejected  uint64
	// Completed / TimedOut / Cancelled / Failed partition the searches
	// that left the queue, by outcome.
	Completed uint64
	TimedOut  uint64
	Cancelled uint64
	Failed    uint64
	// Shed counts admitted searches later evicted from the queue to
	// admit strictly better work (they resolve with ErrOverloaded and
	// are also counted under Failed).
	Shed uint64
	// DeadlineInfeasible counts searches refused — at admission or at
	// dequeue — because their absolute deadline could not be met.
	// Admission refusals are also counted under Rejected; queued
	// expiries also under Cancelled.
	DeadlineInfeasible uint64
	// Hedged is always 0. It is kept only for the wire-to-wire
	// benchmark, which still reads it.
	Hedged uint64
	// QueueWaitTotal / QueueWaitMax aggregate the time searches spent
	// queued before a worker picked them up for service. Searches that
	// never reached the backend — cancelled while queued, shed, or
	// failed with ErrClosed at shutdown — count toward their outcome but
	// contribute nothing here.
	QueueWaitTotal time.Duration
	QueueWaitMax   time.Duration
	// ServiceTotal / ServiceMax aggregate backend search time.
	ServiceTotal time.Duration
	ServiceMax   time.Duration
	// InFlight and Queued are current gauges.
	InFlight int
	Queued   int
	// ByClass breaks the admission counters down per QoS class, indexed
	// by core.QoSClass.
	ByClass [core.NumClasses]ClassStats
}

// Served returns the number of searches that left the queue.
func (s Stats) Served() uint64 {
	return s.Completed + s.TimedOut + s.Cancelled + s.Failed
}

// AvgQueueWait returns the mean queue wait over served searches.
func (s Stats) AvgQueueWait() time.Duration {
	if n := s.Served(); n > 0 {
		return s.QueueWaitTotal / time.Duration(n)
	}
	return 0
}

// AvgService returns the mean backend service time over served searches.
func (s Stats) AvgService() time.Duration {
	if n := s.Served(); n > 0 {
		return s.ServiceTotal / time.Duration(n)
	}
	return 0
}

// job is one queued search and its reply slot.
type job struct {
	ctx      context.Context
	task     core.Task
	enqueued time.Time
	started  atomic.Bool
	res      core.Result
	err      error
	done     chan struct{}
}

// Scheduler is a bounded worker pool over a backend with class-aware
// admission. It implements core.Backend. The zero value is not usable;
// construct with New.
type Scheduler struct {
	backend core.Backend
	cfg     Config
	wg      sync.WaitGroup

	// qmu guards the class queues, the queued count and closed; cond
	// wakes idle workers on enqueue and on Close.
	qmu    sync.Mutex
	cond   *sync.Cond
	queues [core.NumClasses][]*job
	queued int
	closed bool

	statsMu  sync.Mutex
	stats    Stats
	inFlight int

	// svcEWMA (seconds, over completed searches) feeds deadline
	// admission.
	svcEWMA obs.EWMA

	// traceIDs hands out per-search trace correlation IDs.
	traceIDs atomic.Uint64
	// Latency histograms published into cfg.Metrics; nil without a
	// registry.
	hQueueWait      *obs.Histogram
	hService        *obs.Histogram
	hQueueWaitClass [core.NumClasses]*obs.Histogram
	hServiceClass   [core.NumClasses]*obs.Histogram
	hServiceMaxD    [maxMetricDistance + 1]*obs.Histogram
	// Counters published into cfg.Metrics; nil without a registry.
	cShed       *obs.Counter
	cInfeasible *obs.Counter
}

// New starts a scheduler over backend with cfg's pool geometry (zero
// fields take the documented defaults). The returned Scheduler is
// serving immediately; call Close to stop it.
func New(backend core.Backend, cfg Config) *Scheduler {
	if backend == nil {
		panic("sched: nil backend")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.DeadlineGrace == 0 {
		cfg.DeadlineGrace = DefaultDeadlineGrace
	}
	if cfg.AgingStep == 0 {
		cfg.AgingStep = DefaultAgingStep
	}
	s := &Scheduler{backend: backend, cfg: cfg}
	s.cond = sync.NewCond(&s.qmu)
	if cfg.Metrics != nil {
		s.hQueueWait = cfg.Metrics.Histogram("sched.queue_wait_seconds", obs.DefLatencyBuckets)
		s.hService = cfg.Metrics.Histogram("sched.service_seconds", obs.DefLatencyBuckets)
		for c := 0; c < core.NumClasses; c++ {
			name := core.QoSClass(c).String()
			s.hQueueWaitClass[c] = cfg.Metrics.Histogram("sched.queue_wait_seconds."+name, obs.DefLatencyBuckets)
			s.hServiceClass[c] = cfg.Metrics.Histogram("sched.service_seconds."+name, obs.DefLatencyBuckets)
		}
		for d := range s.hServiceMaxD {
			s.hServiceMaxD[d] = cfg.Metrics.Histogram(fmt.Sprintf("sched.service_seconds.maxd%d", d), obs.DefLatencyBuckets)
		}
		s.cShed = cfg.Metrics.Counter("sched.shed_total")
		s.cInfeasible = cfg.Metrics.Counter("sched.deadline_infeasible_total")
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Name implements core.Backend.
func (s *Scheduler) Name() string {
	return fmt.Sprintf("sched(%s, workers=%d, depth=%d)",
		s.backend.Name(), s.cfg.Workers, s.cfg.QueueDepth)
}

// Search implements core.Backend: admit the task, wait for a worker to
// serve it, and return the backend's Result. The task's Class and
// Deadline fields drive admission.
//
// Admission is non-blocking: with Workers searches running and
// QueueDepth queued, Search returns ErrOverloaded immediately (unless
// the task is strictly better than the worst queued search, which is
// then shed in its favour). A task whose Deadline is unreachable is
// refused with ErrDeadlineInfeasible. If ctx is cancelled while the task
// is still queued, Search returns ctx.Err() without waiting for a worker
// (the worker discards the stale job when it reaches it).
func (s *Scheduler) Search(ctx context.Context, task core.Task) (core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !task.Class.Valid() {
		return core.Result{}, fmt.Errorf("sched: invalid QoS class %d", uint8(task.Class))
	}
	if task.Trace == nil {
		task.Trace = s.cfg.Trace
	}
	if task.TraceID == 0 {
		task.TraceID = s.traceIDs.Add(1)
	}
	j := &job{ctx: ctx, task: task, enqueued: time.Now(), done: make(chan struct{})}
	if err := s.admit(j); err != nil {
		return core.Result{}, err
	}

	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		if j.started.Load() {
			// In flight: cancellation propagates into the backend's shell
			// loops, which stop within one CheckInterval; wait for the
			// partial Result so its telemetry reaches the caller.
			<-j.done
			return j.res, j.err
		}
		// Still queued: the worker discards the stale job when it
		// reaches it; the caller gets out immediately.
		return core.Result{}, ctx.Err()
	}
}

// admit runs deadline-based admission control and the class-aware
// enqueue (with shed-the-worst eviction under overload).
func (s *Scheduler) admit(j *job) error {
	now := time.Now()
	if deadline := j.task.Deadline; !deadline.IsZero() {
		infeasible := !now.Before(deadline)
		if !infeasible {
			if eta := s.estimateETA(); eta > 0 && now.Add(eta).After(deadline) {
				infeasible = true
			}
		}
		if infeasible {
			s.countRefusal(j, true)
			obs.Emit(j.task.Trace, obs.TraceEvent{
				Kind: obs.KindReject, Search: j.task.TraceID,
				Detail: "deadline-infeasible", Err: ErrDeadlineInfeasible.Error(),
			})
			return ErrDeadlineInfeasible
		}
	}

	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return ErrClosed
	}
	if s.queued >= s.cfg.QueueDepth {
		victim := s.worstQueuedLocked()
		// Ties never displace queued work: an arrival equal to everything
		// queued is rejected, so identical load keeps plain
		// FIFO-with-rejection semantics.
		if victim == nil || shedOrder(victim, j) <= 0 {
			s.qmu.Unlock()
			s.countRefusal(j, false)
			obs.Emit(j.task.Trace, obs.TraceEvent{Kind: obs.KindReject, Search: j.task.TraceID})
			return ErrOverloaded
		}
		s.removeLocked(victim)
		s.resolveShed(victim)
	}
	s.queues[j.task.Class] = append(s.queues[j.task.Class], j)
	s.queued++
	s.cond.Signal()
	s.qmu.Unlock()

	s.statsMu.Lock()
	s.stats.Submitted++
	s.stats.ByClass[j.task.Class].Submitted++
	s.statsMu.Unlock()
	obs.Emit(j.task.Trace, obs.TraceEvent{Kind: obs.KindEnqueue, Search: j.task.TraceID})
	return nil
}

// countRefusal folds one admission refusal into the counters.
func (s *Scheduler) countRefusal(j *job, infeasible bool) {
	s.statsMu.Lock()
	s.stats.Rejected++
	s.stats.ByClass[j.task.Class].Rejected++
	if infeasible {
		s.stats.DeadlineInfeasible++
	}
	s.statsMu.Unlock()
	if infeasible && s.cInfeasible != nil {
		s.cInfeasible.Inc()
	}
}

// worstQueuedLocked returns the most sheddable queued job (see
// moreSheddable). Called with qmu held.
func (s *Scheduler) worstQueuedLocked() *job {
	var worst *job
	for c := 0; c < core.NumClasses; c++ {
		for _, j := range s.queues[c] {
			if worst == nil || moreSheddable(j, worst) {
				worst = j
			}
		}
	}
	return worst
}

// moreSheddable reports whether a should be shed before b: the shed
// order, with ties going to the youngest.
func moreSheddable(a, b *job) bool {
	if o := shedOrder(a, b); o != 0 {
		return o > 0
	}
	return a.enqueued.After(b.enqueued)
}

// shedOrder places a against b on the shed lattice: lowest QoS class
// first, then largest MaxDistance (the d-large tail costs the most), then
// loosest deadline (none counts as loosest). It is positive when a is
// shed first, negative when b is, and 0 on a tie.
func shedOrder(a, b *job) int {
	if o := cmp.Compare(a.task.Class, b.task.Class); o != 0 {
		return o
	}
	if o := cmp.Compare(a.task.MaxDistance, b.task.MaxDistance); o != 0 {
		return o
	}
	switch aLoose, bLoose := a.task.Deadline.IsZero(), b.task.Deadline.IsZero(); {
	case aLoose && bLoose:
		return 0
	case aLoose:
		return 1
	case bLoose:
		return -1
	}
	return a.task.Deadline.Compare(b.task.Deadline)
}

// removeLocked deletes j from its class queue. Called with qmu held.
func (s *Scheduler) removeLocked(victim *job) {
	q := s.queues[victim.task.Class]
	for i, j := range q {
		if j == victim {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			s.queues[victim.task.Class] = q[:len(q)-1]
			s.queued--
			return
		}
	}
}

// resolveShed fails an evicted job with ErrOverloaded. Counts once as
// Shed + Failed; contributes nothing to the wait aggregates (it never
// reached service).
func (s *Scheduler) resolveShed(victim *job) {
	victim.err = ErrOverloaded
	s.statsMu.Lock()
	s.stats.Failed++
	s.stats.Shed++
	s.stats.ByClass[victim.task.Class].Shed++
	s.statsMu.Unlock()
	if s.cShed != nil {
		s.cShed.Inc()
	}
	obs.Emit(victim.task.Trace, obs.TraceEvent{
		Kind:   obs.KindShed,
		Search: victim.task.TraceID,
		Detail: "shed-for-better",
		Dur:    time.Since(victim.enqueued),
		Err:    ErrOverloaded.Error(),
	})
	close(victim.done)
}

// estimateETA returns the admission controller's estimate of how long a
// newly admitted search will take to finish (queue wait plus service)
// from the service-time EWMA of completed searches, or 0 while no
// estimate is available.
func (s *Scheduler) estimateETA() time.Duration {
	s.qmu.Lock()
	queued := s.queued
	s.qmu.Unlock()
	// Everything queued ahead must be served first, Workers at a time.
	slots := 1 + queued/s.cfg.Workers

	svc, served := s.svcEWMA.Value()
	if served < admitWarmup || svc <= 0 {
		return 0
	}
	return time.Duration(svc * float64(slots) * float64(time.Second))
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.statsMu.Lock()
	snap := s.stats
	snap.InFlight = s.inFlight
	s.statsMu.Unlock()
	s.qmu.Lock()
	snap.Queued = s.queued
	s.qmu.Unlock()
	return snap
}

// Close stops admission, resolves every still-queued search with
// ErrClosed, and waits for in-flight searches to finish. Safe to call more than once. No Search caller can block
// forever behind a shutdown: queued jobs are failed immediately instead
// of waiting for the busy workers.
func (s *Scheduler) Close() {
	s.qmu.Lock()
	s.closed = true
	var orphans []*job
	for c := range s.queues {
		orphans = append(orphans, s.queues[c]...)
		s.queues[c] = nil
	}
	s.queued = 0
	s.cond.Broadcast()
	s.qmu.Unlock()
	for _, j := range orphans {
		s.discard(j, ErrClosed, "closed")
	}
	s.wg.Wait()
}

// discard resolves a job that will never reach the backend. It counts
// once toward the outcome counters — Cancelled for a context cancelled
// or a deadline expired in the queue, Failed for an ErrClosed shutdown —
// and deliberately contributes nothing to QueueWaitTotal/Max: the job
// was never picked up for service, and its "wait" includes time after
// the caller already abandoned it, which would skew the served-search
// latency accounting.
func (s *Scheduler) discard(j *job, err error, reason string) {
	j.err = err
	outcome := OutcomeFailed
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrDeadlineInfeasible) {
		outcome = OutcomeCancelled
	}
	s.record(j.task.Class, outcome, 0, 0)
	if errors.Is(err, ErrDeadlineInfeasible) {
		s.statsMu.Lock()
		s.stats.DeadlineInfeasible++
		s.statsMu.Unlock()
		if s.cInfeasible != nil {
			s.cInfeasible.Inc()
		}
	}
	obs.Emit(j.task.Trace, obs.TraceEvent{
		Kind:   obs.KindDiscard,
		Search: j.task.TraceID,
		Detail: reason,
		Dur:    time.Since(j.enqueued),
		Err:    err.Error(),
	})
	close(j.done)
}

// worker serves queued jobs until the scheduler closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.serve(j)
	}
}

// next blocks until a job is available (returning the highest-priority
// one under aging) or the scheduler closes (returning nil).
func (s *Scheduler) next() *job {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for {
		if j := s.popLocked(time.Now()); j != nil {
			return j
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// popLocked dequeues the job with the best effective priority: each
// class queue's head (its oldest entry) competes at its class level
// minus one level per AgingStep waited, and ties go to the earliest
// enqueue. Called with qmu held.
func (s *Scheduler) popLocked(now time.Time) *job {
	best := -1
	bestEff := int(core.NumClasses)
	var bestAt time.Time
	for c := 0; c < core.NumClasses; c++ {
		q := s.queues[c]
		if len(q) == 0 {
			continue
		}
		head := q[0]
		eff := c
		if s.cfg.AgingStep > 0 {
			eff -= int(now.Sub(head.enqueued) / s.cfg.AgingStep)
			if eff < 0 {
				eff = 0
			}
		}
		if eff < bestEff || (eff == bestEff && head.enqueued.Before(bestAt)) {
			best, bestEff, bestAt = c, eff, head.enqueued
		}
	}
	if best < 0 {
		return nil
	}
	q := s.queues[best]
	j := q[0]
	q[0] = nil
	s.queues[best] = q[1:]
	s.queued--
	return j
}

// serve runs one job against the backend and records its accounting.
func (s *Scheduler) serve(j *job) {
	wait := time.Since(j.enqueued)

	if j.ctx.Err() != nil {
		// Cancelled while queued: don't touch the backend. started stays
		// false so the submitter returns without waiting on done. The
		// discard counts once as Cancelled and is kept out of the
		// queue-wait aggregates (the stale job's wait measures caller
		// abandonment, not admission latency).
		s.discard(j, j.ctx.Err(), "cancelled-queued")
		return
	}
	if !j.task.Deadline.IsZero() && !time.Now().Before(j.task.Deadline) {
		// The deadline passed while the job waited: serving it now would
		// burn backend time on a verdict the caller can no longer use.
		s.discard(j, ErrDeadlineInfeasible, "deadline-queued")
		return
	}
	j.started.Store(true)
	obs.Emit(j.task.Trace, obs.TraceEvent{
		Kind:   obs.KindDequeue,
		Search: j.task.TraceID,
		Dur:    wait,
	})

	ctx := j.ctx
	deadline := time.Time{}
	if j.task.TimeLimit > 0 && s.cfg.DeadlineGrace >= 0 {
		// Wall-clock backstop for the task's authentication threshold:
		// backends normally report a modelled timeout themselves as a
		// TimedOut Result; the padded context deadline guarantees the
		// worker slot is reclaimed even from a backend that does not.
		deadline = time.Now().Add(j.task.TimeLimit + s.cfg.DeadlineGrace)
	}
	// The derived deadline must never extend an earlier caller deadline:
	// take the min with the task's absolute deadline here, and let
	// context.WithDeadline take the min with the submission context's.
	if d := j.task.Deadline; !d.IsZero() && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	s.statsMu.Lock()
	s.inFlight++
	s.statsMu.Unlock()
	started := time.Now()
	res, err := s.backend.Search(ctx, j.task)
	service := time.Since(started)
	s.statsMu.Lock()
	s.inFlight--
	s.statsMu.Unlock()

	outcome := OutcomeCompleted
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outcome = OutcomeCancelled
	case err != nil:
		outcome = OutcomeFailed
	case res.TimedOut:
		outcome = OutcomeTimedOut
	}
	s.record(j.task.Class, outcome, wait, service)
	if outcome == OutcomeCompleted {
		// A cancelled or failed search's duration says nothing about how
		// long service takes.
		s.svcEWMA.Observe(0.2, service.Seconds())
	}
	if s.hQueueWait != nil {
		s.hQueueWait.Observe(wait.Seconds())
		s.hService.Observe(service.Seconds())
		s.hQueueWaitClass[j.task.Class].Observe(wait.Seconds())
		s.hServiceClass[j.task.Class].Observe(service.Seconds())
		if d := j.task.MaxDistance; d >= 0 && d <= maxMetricDistance {
			s.hServiceMaxD[d].Observe(service.Seconds())
		}
	}
	ev := obs.TraceEvent{
		Kind:   obs.KindDone,
		Search: j.task.TraceID,
		Detail: outcome.String(),
		Dur:    service,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	obs.Emit(j.task.Trace, ev)

	j.res, j.err = res, err
	close(j.done)
}

// record folds one served search into the counters.
func (s *Scheduler) record(class core.QoSClass, o Outcome, wait, service time.Duration) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	switch o {
	case OutcomeCompleted:
		s.stats.Completed++
	case OutcomeTimedOut:
		s.stats.TimedOut++
	case OutcomeCancelled:
		s.stats.Cancelled++
	case OutcomeFailed:
		s.stats.Failed++
	}
	s.stats.ByClass[class].Served++
	s.stats.QueueWaitTotal += wait
	if wait > s.stats.QueueWaitMax {
		s.stats.QueueWaitMax = wait
	}
	s.stats.ServiceTotal += service
	if service > s.stats.ServiceMax {
		s.stats.ServiceMax = service
	}
}
