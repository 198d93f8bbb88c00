package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/u256"
)

// Defaults applied by Config for zero fields.
const (
	// DefaultHeartbeatInterval is the worker ping cadence the coordinator
	// requests in its welcome message.
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// DefaultHeartbeatTimeout is how long a worker may stay silent before
	// the coordinator declares it dead and re-dispatches its work.
	DefaultHeartbeatTimeout = 4 * DefaultHeartbeatInterval
	// DefaultSendRetries is the number of re-attempts after a failed job
	// send before the worker is declared dead.
	DefaultSendRetries = 3
	// DefaultRetryBackoff is the initial delay between send retries; it
	// doubles per attempt, capped at MaxRetryBackoff.
	DefaultRetryBackoff = 10 * time.Millisecond
	// MaxRetryBackoff caps the exponential send-retry backoff.
	MaxRetryBackoff = 250 * time.Millisecond
	// DefaultDrainTimeout bounds how long Close waits for in-flight
	// searches to finish before disconnecting the fleet.
	DefaultDrainTimeout = 10 * time.Second

	// hedgeMinDelay floors the percentile-derived hedge trigger.
	hedgeMinDelay = 25 * time.Millisecond
)

// HedgeConfig tunes hedged shard dispatch: a flight (one shard on one
// worker) still unacknowledged after the hedge delay is duplicated onto
// a different worker, the first done message wins, and the straggler is
// hard-cancelled. A slow or half-dead worker then costs one hedge delay
// instead of a heartbeat timeout plus redispatch. Coverage is counted
// from the winning flight only, preserving the coordinator's
// exactly-once accounting.
type HedgeConfig struct {
	// Enabled turns hedged dispatch on.
	Enabled bool
	// Delay is a fixed hedge trigger. Zero derives the trigger from the
	// observed flight-latency distribution (obs.HedgeWindow); a fixed
	// delay makes tests deterministic.
	Delay time.Duration
}

// ErrClosed reports a Search submitted after Close.
var ErrClosed = errors.New("cluster: coordinator closed")

// errNoWorkers is the internal signal that a dispatch found no eligible
// live worker. Exported behaviour: Search fails with a descriptive error
// unless Config.Fallback turns it into degraded-mode execution.
var errNoWorkers = errors.New("cluster: no workers registered")

// Config tunes a Coordinator's fault-tolerance behaviour. The zero value
// is fully usable: every field has a documented default.
type Config struct {
	// Alg is the hash algorithm the cluster searches with.
	Alg core.HashAlg
	// Fallback, when non-nil, enables degraded mode: a Search arriving
	// with an empty fleet is delegated to this local backend instead of
	// failing, and a shell whose workers all die mid-flight finishes its
	// unowned ranges on the coordinator's own cores. Leave nil to keep
	// the strict fail-fast behaviour.
	Fallback core.Backend
	// HeartbeatInterval is the ping cadence requested from workers; 0
	// means DefaultHeartbeatInterval, negative disables heartbeats (death
	// is then detected only by connection errors).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence window after which a worker is
	// declared dead; 0 means 4x the effective interval.
	HeartbeatTimeout time.Duration
	// SendRetries is the number of retries for a transient job-send
	// failure; 0 means DefaultSendRetries, negative disables retries.
	SendRetries int
	// RetryBackoff is the initial send-retry delay, doubling per attempt
	// up to MaxRetryBackoff; 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// DrainTimeout bounds Close's wait for in-flight searches; 0 means
	// DefaultDrainTimeout, negative disables draining.
	DrainTimeout time.Duration
	// Hedge enables hedged shard dispatch for straggling flights (see
	// HedgeConfig).
	Hedge HedgeConfig
	// Metrics, when non-nil, publishes the cluster fault-tolerance
	// counters (cluster_worker_deaths, cluster_redispatches,
	// cluster_rejoins, cluster_fallbacks, cluster_proto_rejects) and the
	// cluster_redispatch_latency_seconds histogram into the registry.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of the coordinator's fleet and
// fault-tolerance counters.
type Stats struct {
	// Workers and Cores describe the live fleet.
	Workers int
	Cores   int
	// Deaths counts worker connections lost (error, heartbeat timeout or
	// orderly departure). Rejoins counts admissions of a worker name seen
	// before — a death followed by a rejoin is the reconnect cycle.
	Deaths  uint64
	Rejoins uint64
	// Redispatches counts seed-rank ranges re-assigned after their owner
	// died mid-shell.
	Redispatches uint64
	// Fallbacks counts searches or shell ranges served by the local
	// fallback path because the fleet was empty.
	Fallbacks uint64
	// ProtoRejects counts handshakes refused for a protocol-version
	// mismatch or a malformed hello.
	ProtoRejects uint64
	// Hedges counts flights duplicated onto a second worker after
	// straggling past the hedge trigger; HedgeWins counts the hedges
	// whose duplicate answered first. The gap between them is wasted
	// duplicate work — the price of the tail-latency insurance.
	Hedges    uint64
	HedgeWins uint64
	// Degraded reports that the coordinator currently has no live
	// workers, so searches are served by Config.Fallback (or fail).
	Degraded bool
}

// Coordinator owns a distributed RBC search. It implements core.Backend:
// a Task is split shell by shell over the registered workers, weighted by
// their core counts, with a FOUND result cancelling the rest of the
// cluster.
//
// The coordinator survives worker failure: a worker that dies mid-shell
// (connection error or heartbeat timeout) has its unacknowledged range
// re-dispatched to the survivors, re-weighted by their cores; a worker
// may reconnect at any time and is used from the next dispatch on.
// Coverage is counted only from acknowledged done messages, so every
// seed rank is accounted exactly once regardless of the failure pattern.
type Coordinator struct {
	// Alg is the hash algorithm the cluster searches with. Retained for
	// literal construction (&Coordinator{Alg: ...}); NewCoordinator sets
	// it from Config.Alg.
	Alg core.HashAlg

	cfg      Config
	initOnce sync.Once
	stop     chan struct{} // closes the health monitor
	stopOnce sync.Once

	mu      sync.Mutex
	workers []*workerConn
	seen    map[string]bool // worker names admitted at least once
	nextJob uint64
	ln      net.Listener
	closed  bool

	// searches tracks in-flight Search calls for Close's drain.
	searches sync.WaitGroup

	deaths       atomic.Uint64
	rejoins      atomic.Uint64
	redispatches atomic.Uint64
	fallbacks    atomic.Uint64
	protoRejects atomic.Uint64
	hedges       atomic.Uint64
	hedgeWins    atomic.Uint64

	// flightLatency holds completed flights' dispatch-to-done latencies,
	// feeding the derived hedge trigger.
	flightLatency obs.HedgeWindow

	mDeaths       *obs.Counter
	mRedispatches *obs.Counter
	mRejoins      *obs.Counter
	mFallbacks    *obs.Counter
	mProtoRejects *obs.Counter
	mHedges       *obs.Counter
	mHedgeWins    *obs.Counter
	hRedispatch   *obs.Histogram
}

// NewCoordinator builds a coordinator with cfg's fault-tolerance policy
// (zero fields take the documented defaults). The zero-value
// &Coordinator{Alg: alg} remains valid and is equivalent to
// NewCoordinator(Config{Alg: alg}).
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{Alg: cfg.Alg, cfg: cfg}
	c.init()
	return c
}

// init applies config defaults, wires metrics and starts the health
// monitor. Called lazily so literally-constructed coordinators behave
// identically to NewCoordinator ones.
func (c *Coordinator) init() {
	c.initOnce.Do(func() {
		if c.cfg.HeartbeatInterval == 0 {
			c.cfg.HeartbeatInterval = DefaultHeartbeatInterval
		}
		if c.cfg.HeartbeatTimeout == 0 {
			if c.cfg.HeartbeatInterval > 0 {
				c.cfg.HeartbeatTimeout = 4 * c.cfg.HeartbeatInterval
			} else {
				c.cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
			}
		}
		if c.cfg.SendRetries == 0 {
			c.cfg.SendRetries = DefaultSendRetries
		}
		if c.cfg.RetryBackoff == 0 {
			c.cfg.RetryBackoff = DefaultRetryBackoff
		}
		if c.cfg.DrainTimeout == 0 {
			c.cfg.DrainTimeout = DefaultDrainTimeout
		}
		c.seen = make(map[string]bool)
		c.stop = make(chan struct{})
		if reg := c.cfg.Metrics; reg != nil {
			c.mDeaths = reg.Counter("cluster_worker_deaths")
			c.mRedispatches = reg.Counter("cluster_redispatches")
			c.mRejoins = reg.Counter("cluster_rejoins")
			c.mFallbacks = reg.Counter("cluster_fallbacks")
			c.mProtoRejects = reg.Counter("cluster_proto_rejects")
			c.mHedges = reg.Counter("cluster_hedges")
			c.mHedgeWins = reg.Counter("cluster_hedge_wins")
			c.hRedispatch = reg.Histogram("cluster_redispatch_latency_seconds", obs.DefLatencyBuckets)
		}
		if c.cfg.HeartbeatInterval > 0 {
			go c.monitor()
		}
	})
}

// workerConn is the coordinator's view of one connected worker.
type workerConn struct {
	name    string
	cores   int
	methods []int
	conn    net.Conn
	writeMu sync.Mutex

	// lastSeen is the unix-nano timestamp of the last message received
	// from the worker (done, ping, anything); the health monitor declares
	// the worker dead when it goes stale past the heartbeat timeout.
	lastSeen atomic.Int64

	mu      sync.Mutex
	pending map[uint64]chan jobResult
	gone    bool
}

// jobResult is what a dispatched flight resolves to: either the worker's
// done message, or lost=true when the worker died before answering (the
// flight's range must be re-dispatched).
type jobResult struct {
	msg  *doneMsg
	lost bool
}

func (wc *workerConn) send(kind byte, v any) error {
	wc.writeMu.Lock()
	defer wc.writeMu.Unlock()
	return writeMsg(wc.conn, kind, v)
}

// markGone flips the worker to dead exactly once and resolves every
// pending flight as lost. Returns false if the worker was already gone.
func (wc *workerConn) markGone() bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.gone {
		return false
	}
	wc.gone = true
	for id, ch := range wc.pending {
		ch <- jobResult{lost: true}
		delete(wc.pending, id)
	}
	return true
}

// Serve accepts worker connections until the listener closes.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.init()
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go c.Admit(conn)
	}
}

// Close stops accepting workers, waits up to Config.DrainTimeout for
// in-flight searches to finish, then disconnects the fleet and stops the
// health monitor. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.init()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	c.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	if c.cfg.DrainTimeout > 0 {
		drained := make(chan struct{})
		go func() {
			c.searches.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(c.cfg.DrainTimeout):
		}
	}
	c.stopOnce.Do(func() { close(c.stop) })
	c.mu.Lock()
	workers := c.workers
	c.workers = nil
	c.mu.Unlock()
	for _, wc := range workers {
		wc.conn.Close()
	}
	return err
}

// monitor watches worker liveness: a worker silent for longer than the
// heartbeat timeout has its connection closed, which drives the regular
// death path (pending flights resolve as lost and get re-dispatched).
func (c *Coordinator) monitor() {
	tick := c.cfg.HeartbeatTimeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-c.cfg.HeartbeatTimeout).UnixNano()
			c.mu.Lock()
			fleet := append([]*workerConn(nil), c.workers...)
			c.mu.Unlock()
			for _, wc := range fleet {
				if wc.lastSeen.Load() < cutoff {
					// The read loop unblocks with an error and runs the
					// death path; markGone here resolves pending flights
					// immediately rather than waiting for TCP teardown.
					wc.conn.Close()
					c.reap(wc)
				}
			}
		}
	}
}

// Admit performs the versioned hello/welcome exchange on an established
// connection and, on success, serves the worker's messages until it
// disconnects. Serve calls it for every accepted TCP connection; tests
// and alternative transports may call it directly with any net.Conn.
func (c *Coordinator) Admit(conn net.Conn) {
	c.init()
	reject := func(reason string) {
		c.protoRejects.Add(1)
		if c.mProtoRejects != nil {
			c.mProtoRejects.Inc()
		}
		_ = writeMsg(conn, kindWelcome, &welcomeMsg{
			Proto:  ProtoVersion,
			Accept: false,
			Reason: reason,
		})
		conn.Close()
	}

	kind, msg, err := readMsg(conn)
	if err != nil || kind != kindHello {
		reject("expected hello")
		return
	}
	hello := msg.(*helloMsg)
	if hello.Proto != ProtoVersion {
		// Typed on this end too: the reject counter plus the welcome's
		// version tell both sides exactly what went wrong.
		reject(fmt.Sprintf("%v: coordinator speaks v%d, worker v%d",
			ErrProtoVersion, ProtoVersion, hello.Proto))
		return
	}
	if hello.Cores <= 0 {
		reject(fmt.Sprintf("invalid core count %d", hello.Cores))
		return
	}
	beatMillis := 0
	if c.cfg.HeartbeatInterval > 0 {
		beatMillis = int(c.cfg.HeartbeatInterval / time.Millisecond)
		if beatMillis == 0 {
			beatMillis = 1
		}
	}
	if err := writeMsg(conn, kindWelcome, &welcomeMsg{
		Proto:           ProtoVersion,
		Accept:          true,
		HeartbeatMillis: beatMillis,
	}); err != nil {
		conn.Close()
		return
	}

	wc := &workerConn{
		name:    hello.Name,
		cores:   hello.Cores,
		methods: hello.Methods,
		conn:    conn,
		pending: make(map[uint64]chan jobResult),
	}
	wc.lastSeen.Store(time.Now().UnixNano())
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if wc.name != "" {
		if c.seen[wc.name] {
			c.rejoins.Add(1)
			if c.mRejoins != nil {
				c.mRejoins.Inc()
			}
		}
		c.seen[wc.name] = true
	}
	c.workers = append(c.workers, wc)
	c.mu.Unlock()

	for {
		kind, msg, err := readMsg(conn)
		if err != nil {
			break
		}
		wc.lastSeen.Store(time.Now().UnixNano())
		switch kind {
		case kindDone:
			done := msg.(*doneMsg)
			wc.mu.Lock()
			ch, ok := wc.pending[done.ID]
			delete(wc.pending, done.ID)
			wc.mu.Unlock()
			if ok {
				ch <- jobResult{msg: done}
			}
		case kindPing:
			// Liveness only; lastSeen is already refreshed.
		default:
			// Unknown traffic from an admitted worker: ignore rather than
			// dropping the worker — forward compatibility for capability
			// messages added within the same protocol version.
		}
	}
	c.reap(wc)
	conn.Close()
}

// reap runs the death path for a worker: resolve its pending flights as
// lost, remove it from the pool and count the death. Idempotent — the
// health monitor and the read loop may both call it.
func (c *Coordinator) reap(wc *workerConn) {
	if !wc.markGone() {
		return
	}
	c.deaths.Add(1)
	if c.mDeaths != nil {
		c.mDeaths.Inc()
	}
	c.mu.Lock()
	for i, w := range c.workers {
		if w == wc {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// WaitForWorkers blocks until at least n workers are registered.
func (c *Coordinator) WaitForWorkers(n int, timeout time.Duration) error {
	c.init()
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		have := len(c.workers)
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: only %d/%d workers after %s", have, n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Workers returns the current worker count and total cores.
func (c *Coordinator) Workers() (count, cores int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		cores += w.cores
	}
	return len(c.workers), cores
}

// Stats snapshots the fleet and the fault-tolerance counters.
func (c *Coordinator) Stats() Stats {
	n, cores := c.Workers()
	return Stats{
		Workers:      n,
		Cores:        cores,
		Deaths:       c.deaths.Load(),
		Rejoins:      c.rejoins.Load(),
		Redispatches: c.redispatches.Load(),
		Fallbacks:    c.fallbacks.Load(),
		ProtoRejects: c.protoRejects.Load(),
		Hedges:       c.hedges.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		Degraded:     n == 0,
	}
}

// Degraded implements core.HealthReporter: true while the coordinator
// has no live workers and is serving through Config.Fallback (or failing
// searches, when no fallback is configured).
func (c *Coordinator) Degraded() bool {
	n, _ := c.Workers()
	return n == 0
}

// Name implements core.Backend.
func (c *Coordinator) Name() string {
	n, cores := c.Workers()
	return fmt.Sprintf("SALTED-CLUSTER(%s, %d workers, %d cores)", c.Alg, n, cores)
}

// eligibleFleet snapshots the live workers able to run method m.
func (c *Coordinator) eligibleFleet(m iterseq.Method) []*workerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	fleet := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		w.mu.Lock()
		gone := w.gone
		w.mu.Unlock()
		if gone || !methodSupported(w.methods, int(m)) {
			continue
		}
		fleet = append(fleet, w)
	}
	return fleet
}

// Search implements core.Backend: the real distributed search. A ctx
// cancellation is forwarded to every remote worker as a hard cancel
// message, so the whole fleet stops within one ChunkSeeds slice; the
// partial Result is returned with ctx.Err(). Worker deaths mid-search
// re-dispatch the dead workers' unacknowledged ranges to the survivors;
// with Config.Fallback set, an empty fleet degrades to local execution
// instead of failing.
func (c *Coordinator) Search(ctx context.Context, task core.Task) (core.Result, error) {
	c.init()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return core.Result{}, ErrClosed
	}
	c.searches.Add(1)
	c.mu.Unlock()
	defer c.searches.Done()

	// Degraded mode: an empty fleet at search entry delegates the whole
	// task to the local fallback backend.
	if len(c.eligibleFleet(task.Method)) == 0 && c.cfg.Fallback != nil {
		c.countFallback()
		return c.cfg.Fallback.Search(ctx, task)
	}
	return core.SearchBall(ctx, task, core.Engine{
		Name:  c.Name(),
		Probe: core.HashProbe(c.Alg, task.Target),
		Shell: func(ctx context.Context, d int, deadline time.Time) (core.ShellOutcome, error) {
			found, seed, covered, err := c.searchShell(ctx, task, d)
			return core.ShellOutcome{
				Found: found, Seed: seed, Covered: covered, Hashed: covered,
				// Workers run to the end of their ranges; the time limit
				// is held against the wall clock between shells.
				TimedOut: !deadline.IsZero() && time.Now().After(deadline),
			}, err
		},
	})
}

func (c *Coordinator) countFallback() {
	c.fallbacks.Add(1)
	if c.mFallbacks != nil {
		c.mFallbacks.Inc()
	}
}

// shard is one contiguous seed-rank range of a shell awaiting coverage.
type shard struct {
	start uint64
	count uint64
}

// flight is one shard dispatched to one worker (or the local fallback).
type flight struct {
	wc    *workerConn // nil for a local-fallback flight
	id    uint64
	shard shard
	// sent is when the job went on the wire, for flight-latency samples.
	sent time.Time
	// group ties a primary flight and its hedge duplicate together; nil
	// when hedging is off or the flight runs on the local fallback.
	group *hedgeGroup
	// hedge marks the duplicate flight of a group.
	hedge bool
}

// hedgeGroup is the set of flights racing to cover one shard: the
// primary plus (after the hedge trigger) one duplicate. Only the first
// done message is counted; the group is accessed only from the owning
// searchShell loop, so it needs no locking.
type hedgeGroup struct {
	members  []*flight
	live     int // members in the air, neither done nor lost
	resolved bool
}

// flightResult pairs a resolved flight with its outcome.
type flightResult struct {
	fl  *flight
	res jobResult
}

// searchShell fans one Hamming shell out over the fleet and keeps it
// covered under worker failure: a flight whose worker dies resolves as
// lost and its shard is re-dispatched over the survivors (re-weighted by
// cores); with no survivors the shard runs on the local fallback path.
// With hedging enabled, a flight straggling past the hedge trigger races
// a duplicate on a different worker and the first done message wins.
func (c *Coordinator) searchShell(ctx context.Context, task core.Task, d int) (bool, u256.Uint256, uint64, error) {
	size, ok := combin.Binomial64(256, d)
	if !ok {
		return false, u256.Zero, 0, fmt.Errorf("cluster: C(256,%d) overflows uint64", d)
	}

	results := make(chan flightResult)
	var flights []*flight // every dispatched flight, for cancel broadcast
	var hedgeCh chan *flight
	var shellDone chan struct{}
	if c.cfg.Hedge.Enabled {
		hedgeCh = make(chan *flight)
		shellDone = make(chan struct{})
		defer close(shellDone)
	}

	var (
		found     bool
		foundSeed u256.Uint256
		covered   uint64
		firstErr  error
		cancelled bool
	)
	outstanding, err := c.dispatchShard(ctx, task, d, shard{0, size}, results, &flights, hedgeCh, shellDone)
	if err != nil {
		if outstanding == 0 {
			return false, u256.Zero, 0, err
		}
		// Some flights launched before the dispatch failed: drain them
		// below so no result goroutine is orphaned, then surface the
		// error.
		firstErr = err
	}
	ctxDone := ctx.Done()
	for outstanding > 0 {
		select {
		case fr := <-results:
			outstanding--
			g := fr.fl.group
			if fr.res.lost {
				if g != nil {
					g.live--
					if g.resolved || g.live > 0 {
						// The shard is already counted, or its hedge twin is
						// still in the air and covers the same ranks: no
						// redispatch needed for this loss.
						continue
					}
				}
				// The flight's worker died without acknowledging: nothing
				// of its range was counted, so re-dispatching the whole
				// shard keeps every rank covered exactly once. Skip the
				// re-dispatch when the search is already terminating.
				if cancelled || (found && !task.Exhaustive) {
					continue
				}
				redispatchStart := time.Now()
				n, derr := c.dispatchShard(ctx, task, d, fr.fl.shard, results, &flights, hedgeCh, shellDone)
				outstanding += n
				c.redispatches.Add(1)
				if c.mRedispatches != nil {
					c.mRedispatches.Inc()
				}
				if c.hRedispatch != nil {
					c.hRedispatch.Observe(time.Since(redispatchStart).Seconds())
				}
				if derr != nil && firstErr == nil {
					firstErr = derr
				}
				continue
			}
			if g != nil {
				if g.resolved {
					// The loser of a hedge race answering after the cancel:
					// its winner was already counted, so folding this done in
					// would double-count the shard.
					continue
				}
				g.resolved = true
				g.live--
				if fr.fl.hedge {
					c.hedgeWins.Add(1)
					if c.mHedgeWins != nil {
						c.mHedgeWins.Inc()
					}
				}
				// Hard-cancel the twin: its answer is no longer wanted even
				// in exhaustive mode — the winner covered the same ranks.
				for _, m := range g.members {
					if m != fr.fl && m.wc != nil {
						_ = m.wc.send(kindCancel, &cancelMsg{ID: m.id, Hard: true})
					}
				}
			}
			if !fr.fl.sent.IsZero() {
				c.flightLatency.Observe(time.Since(fr.fl.sent))
			}
			done := fr.res.msg
			if done.Err != "" && firstErr == nil {
				firstErr = errors.New(done.Err)
			}
			covered += done.Covered
			if done.Found && !found {
				found = true
				foundSeed = u256.FromBytes(done.Seed)
				if !task.Exhaustive {
					c.broadcastCancel(flights, false)
				}
			}
		case fl := <-hedgeCh:
			// A flight straggled past the hedge trigger. Skip when the
			// shard no longer needs insurance: already answered, search
			// terminating, or the flight was lost and redispatched.
			if cancelled || (found && !task.Exhaustive) {
				continue
			}
			g := fl.group
			if g == nil || g.resolved || g.live == 0 || len(g.members) > 1 {
				continue
			}
			if h := c.launchHedge(task, d, fl, results); h != nil {
				flights = append(flights, h)
				g.members = append(g.members, h)
				g.live++
				outstanding++
				c.hedges.Add(1)
				if c.mHedges != nil {
					c.mHedges.Inc()
				}
				obs.Emit(task.Trace, obs.TraceEvent{
					Kind:   obs.KindHedge,
					Search: task.TraceID,
					Depth:  d,
					N:      fl.shard.count,
					Dur:    time.Since(fl.sent),
				})
			}
		case <-ctxDone:
			if !cancelled {
				cancelled = true
				c.broadcastCancel(flights, true)
			}
			ctxDone = nil // broadcast once; keep draining done messages
		}
	}
	if cancelled && !found {
		return false, u256.Zero, covered, ctx.Err()
	}
	if firstErr != nil && !found {
		return false, u256.Zero, covered, firstErr
	}
	return found, foundSeed, covered, nil
}

// hedgeDelay returns the current hedge trigger: the configured fixed
// delay, or the one derived from the observed flight latencies — 0,
// meaning "do not hedge yet", while too few flights have been observed.
func (c *Coordinator) hedgeDelay() time.Duration {
	if d := c.cfg.Hedge.Delay; d > 0 {
		return d
	}
	return c.flightLatency.Delay(hedgeMinDelay)
}

// launchHedge duplicates a straggling flight's whole shard onto one
// eligible worker other than the original. Best-effort: any failure
// (no second worker, send error) returns nil and the primary keeps
// flying alone.
func (c *Coordinator) launchHedge(task core.Task, d int, orig *flight, results chan flightResult) *flight {
	var w *workerConn
	for _, cand := range c.eligibleFleet(task.Method) {
		if cand != orig.wc {
			w = cand
			break
		}
	}
	if w == nil {
		return nil
	}
	c.mu.Lock()
	c.nextJob++
	id := c.nextJob
	c.mu.Unlock()
	ch := make(chan jobResult, 1)
	w.mu.Lock()
	gone := w.gone
	if !gone {
		w.pending[id] = ch
	}
	w.mu.Unlock()
	if gone {
		return nil
	}
	job := &jobMsg{
		ID:            id,
		Base:          task.Base.Bytes(),
		Alg:           int(c.Alg),
		Target:        task.Target.Bytes(),
		Distance:      d,
		Method:        int(task.Method),
		StartRank:     orig.shard.start,
		Count:         orig.shard.count,
		CheckInterval: task.EffectiveCheckInterval(),
		Exhaustive:    task.Exhaustive,
	}
	if err := w.send(kindJob, job); err != nil {
		w.mu.Lock()
		delete(w.pending, id)
		w.mu.Unlock()
		return nil
	}
	fl := &flight{wc: w, id: id, shard: orig.shard, sent: time.Now(), group: orig.group, hedge: true}
	go func() { results <- flightResult{fl: fl, res: <-ch} }()
	return fl
}

// broadcastCancel sends a cancel for every dispatched flight. Send
// failures are ignored: a dead worker needs no cancelling.
func (c *Coordinator) broadcastCancel(flights []*flight, hard bool) {
	for _, fl := range flights {
		if fl.wc == nil {
			continue // local flights honour ctx directly
		}
		_ = fl.wc.send(kindCancel, &cancelMsg{ID: fl.id, Hard: hard})
	}
}

// dispatchShard splits one shard over the currently eligible fleet,
// weighted by core counts, and starts a flight per sub-range. A send
// failure (after deadline-aware retries) kills that worker and re-splits
// the affected sub-range over the remaining fleet. With no eligible
// workers at all, the shard runs on the local fallback path when
// Config.Fallback is set, or the dispatch fails. Returns the number of
// flights started. A non-nil hedgeCh arms a hedge trigger per remote
// flight: the flight is offered for duplication if still unresolved
// after the hedge delay (shellDone disarms the timers when the shell
// completes first).
func (c *Coordinator) dispatchShard(ctx context.Context, task core.Task, d int, s shard, results chan flightResult, flights *[]*flight, hedgeCh chan *flight, shellDone chan struct{}) (int, error) {
	if s.count == 0 {
		return 0, nil
	}
	todo := []shard{s}
	started := 0
	for len(todo) > 0 {
		cur := todo[0]
		todo = todo[1:]
		fleet := c.eligibleFleet(task.Method)
		if len(fleet) == 0 {
			if c.cfg.Fallback == nil {
				return started, errNoWorkers
			}
			c.countFallback()
			started++
			*flights = append(*flights, c.launchLocal(ctx, task, d, cur, results))
			continue
		}
		totalCores := 0
		for _, w := range fleet {
			totalCores += w.cores
		}
		startRank := cur.start
		remaining := cur.count
		remainingCores := totalCores
		base := task.Base.Bytes()
		for _, w := range fleet {
			cnt := remaining * uint64(w.cores) / uint64(remainingCores)
			remainingCores -= w.cores
			if remainingCores == 0 {
				cnt = remaining
			}
			if cnt == 0 {
				continue
			}
			c.mu.Lock()
			c.nextJob++
			id := c.nextJob
			c.mu.Unlock()
			sub := shard{start: startRank, count: cnt}
			startRank += cnt
			remaining -= cnt

			ch := make(chan jobResult, 1)
			w.mu.Lock()
			gone := w.gone
			if !gone {
				w.pending[id] = ch
			}
			w.mu.Unlock()
			if gone {
				// Worker died between the fleet snapshot and dispatch:
				// push the sub-range back for a fresh split.
				todo = append(todo, sub)
				continue
			}
			job := &jobMsg{
				ID:            id,
				Base:          base,
				Alg:           int(c.Alg),
				Target:        task.Target.Bytes(),
				Distance:      d,
				Method:        int(task.Method),
				StartRank:     sub.start,
				Count:         sub.count,
				CheckInterval: task.EffectiveCheckInterval(),
				Exhaustive:    task.Exhaustive,
			}
			if err := c.sendJobRetry(ctx, w, job); err != nil {
				// Persistent send failure: the worker is dead to us. Remove
				// our pending entry (so the death path cannot also resolve
				// it), reap the worker, and re-split this sub-range.
				w.mu.Lock()
				delete(w.pending, id)
				w.mu.Unlock()
				w.conn.Close()
				c.reap(w)
				if ctx.Err() != nil {
					return started, ctx.Err()
				}
				todo = append(todo, sub)
				continue
			}
			fl := &flight{wc: w, id: id, shard: sub, sent: time.Now()}
			if hedgeCh != nil {
				fl.group = &hedgeGroup{members: []*flight{fl}, live: 1}
				if delay := c.hedgeDelay(); delay > 0 {
					go func(fl *flight) {
						t := time.NewTimer(delay)
						defer t.Stop()
						select {
						case <-t.C:
						case <-shellDone:
							return
						}
						select {
						case hedgeCh <- fl:
						case <-shellDone:
						}
					}(fl)
				}
			}
			*flights = append(*flights, fl)
			started++
			go func() { results <- flightResult{fl: fl, res: <-ch} }()
		}
	}
	return started, nil
}

// sendJobRetry sends a job with capped exponential backoff between
// attempts, giving transient transport hiccups a chance to clear. It
// aborts early when ctx is done (deadline-aware) or the worker is gone.
func (c *Coordinator) sendJobRetry(ctx context.Context, w *workerConn, job *jobMsg) error {
	backoff := c.cfg.RetryBackoff
	attempts := 1 + c.cfg.SendRetries
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > MaxRetryBackoff {
				backoff = MaxRetryBackoff
			}
			w.mu.Lock()
			gone := w.gone
			w.mu.Unlock()
			if gone {
				return fmt.Errorf("cluster: worker %s died during send retry", w.name)
			}
		}
		if err = w.send(kindJob, job); err == nil {
			return nil
		}
	}
	return fmt.Errorf("cluster: dispatch to %s: %w", w.name, err)
}

// launchLocal runs one shard on the coordinator's own cores — the
// degraded-mode path when a shell's workers all died and nobody is left
// to take the work. It reuses the worker's chunked range loop, honouring
// ctx between chunks, and resolves like any other flight.
func (c *Coordinator) launchLocal(ctx context.Context, task core.Task, d int, s shard, results chan flightResult) *flight {
	fl := &flight{shard: s}
	go func() {
		out := &doneMsg{}
		cores := runtime.GOMAXPROCS(0)
		newMatcher := core.HashMatcherFactory(c.Alg, task.Target)
		for off := uint64(0); off < s.count; off += ChunkSeeds {
			if ctx.Err() != nil {
				break
			}
			chunk := min64(ChunkSeeds, s.count-off)
			found, seed, covered, err := searchRange(
				task.Base, d, task.Method, s.start+off, chunk, cores,
				task.EffectiveCheckInterval(), task.Exhaustive, newMatcher)
			if err != nil {
				out.Err = err.Error()
				break
			}
			out.Covered += covered
			if found && !out.Found {
				out.Found = true
				out.Seed = seed.Bytes()
				if !task.Exhaustive {
					break
				}
			}
		}
		results <- flightResult{fl: fl, res: jobResult{msg: out}}
	}()
	return fl
}
