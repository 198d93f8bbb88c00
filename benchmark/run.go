package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	rbc "rbcsalted"
	"rbcsalted/internal/core"
	"rbcsalted/internal/netproto"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/sched"
)

// options are one invocation's settings.
type options struct {
	seed     uint64
	seconds  float64 // measured seconds per workload, over all segments
	count    int     // requests per segment; 0 sizes them from seconds
	clients  int
	maxd     int
	trace    bool
	quick    bool
	dataRoot string
	outDir   string
	conc     int // closed-loop connections
}

// A run builds the system at least minSetups times, and goes on until the
// set-ups together took setupBudget (a memory-only node is up in under a
// tenth of a second) or there are maxSetups of them; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// workloadReport is everything one workload run measured.
type workloadReport struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Fails counts the failed requests by kind.
	Fails map[string]int `json:"fails,omitempty"`
	// ExactCounts says the exact counters repeat from run to run: no
	// timer-driven traffic (churn) runs beside the request stream.
	ExactCounts bool `json:"exact_counts"`
	PerSegment  int  `json:"requests_per_segment"`
	Connections int  `json:"connections"`
	// OpenRate and OpenRequests describe the traced run's open-loop pass.
	OpenRate     float64 `json:"open_rate_per_s,omitempty"`
	OpenRequests int     `json:"open_requests,omitempty"`
	SpanFile     string  `json:"span_file,omitempty"`

	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

// counters is a reading of the primary's own instrumentation: the
// metrics registry, the scheduler's stats and the trace ring, plus the
// runtime's memory statistics.
type counters struct {
	appends, appendBytes, rotations uint64
	fsync, snapshot                 obs.HistogramSnapshot
	snapshotBytes                   int64
	netErrors                       uint64
	sched                           sched.Stats
	mem                             runtime.MemStats
}

func readCounters(n *rbc.ServerNode) counters {
	// The registry's constructors are get-or-create, so asking by name
	// returns the node's own metric (or a zero one it never registered).
	reg := n.Metrics
	c := counters{
		appends:       reg.Counter("durable.wal_appends").Value(),
		appendBytes:   reg.Counter("durable.wal_append_bytes").Value(),
		rotations:     reg.Counter("durable.wal_rotations").Value(),
		fsync:         reg.Histogram("durable.fsync_seconds", obs.DefLatencyBuckets).Snapshot(),
		snapshot:      reg.Histogram("durable.snapshot_seconds", obs.DefLatencyBuckets).Snapshot(),
		snapshotBytes: reg.Gauge("durable.snapshot_bytes").Value(),
		sched:         n.Pool.Stats(),
	}
	wire := netproto.NewMetrics(reg)
	c.netErrors = wire.ErrorsOther.Value()
	for _, e := range wire.Errors {
		c.netErrors += e.Value()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// churner is mixed_churn's second use of the same layers: enrolments
// and deprovisions (10 KB image records beside 100-byte session records)
// at ten of each per second.
type churner struct {
	stop context.CancelFunc
	done chan struct{}
	errs []error
}

func startChurn(c *cluster, pop *population) *churner {
	ctx, cancel := context.WithCancel(context.Background())
	ch := &churner{stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(ch.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		id := func(k int) core.ClientID { return core.ClientID(fmt.Sprintf("churn-%06d", k)) }
		for k := 0; ; k++ {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			if err := c.primary.CA.Enroll(id(k), pop.images[k%len(pop.images)]); err != nil {
				ch.errs = append(ch.errs, err)
			}
			if k > 0 {
				if err := c.primary.CA.Deprovision(id(k - 1)); err != nil {
					ch.errs = append(ch.errs, err)
				}
			}
		}
	}()
	return ch
}

func (ch *churner) close() error {
	ch.stop()
	<-ch.done
	return errors.Join(ch.errs...)
}

// lagSampler samples replication lag every 100 ms while it runs.
type lagSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startLagSampler(c *cluster) *lagSampler {
	s := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if lag, ok := c.lag(); ok {
					s.samples = append(s.samples, float64(lag))
				}
			}
		}
	}()
	return s
}

func (s *lagSampler) close() []float64 {
	close(s.stop)
	<-s.done
	sort.Float64s(s.samples)
	return s.samples
}

// tracedResult is what the traced pass yields.
type tracedResult struct {
	budget      budget
	tracedP50   float64 // ms
	untracedP50 float64 // ms
	spanFile    string
}

// tracedPass runs n requests at concurrency 1 with the recorder on, in
// blocks that alternate with equally long untraced blocks on the same
// node: the untraced blocks are the baseline the wrappers' overhead is
// measured against.
func tracedPass(g *generator, w workload, n, block int, outDir string) (tracedResult, error) {
	var (
		res              tracedResult
		traced, untraced []float64
		events           []obs.TraceEvent
	)
	rec, ring := g.cluster.rec, g.cluster.primary.Trace
	for done := 0; done < n; done += block {
		before := ring.Total()
		rec.on.Store(true)
		seg := g.closedLoop(block, 1)
		rec.on.Store(false)
		if seg.failed() > 0 {
			return res, fmt.Errorf("traced pass: %d of %d requests failed", seg.failed(), block)
		}
		traced = append(traced, seg.latency...)
		// The ring keeps the last 1024 events; a block emits fewer.
		snap, emitted := ring.Snapshot(), int(ring.Total()-before)
		if emitted > len(snap) {
			return res, fmt.Errorf("traced pass: trace ring dropped %d events", emitted-len(snap))
		}
		events = append(events, snap[len(snap)-emitted:]...)

		seg = g.closedLoop(block, 1)
		if seg.failed() > 0 {
			return res, fmt.Errorf("traced pass: %d of %d untraced requests failed", seg.failed(), block)
		}
		untraced = append(untraced, seg.latency...)
	}
	// The server closes each connection after the client has its result.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		rec.mu.Lock()
		open := 0
		for _, sc := range rec.conns {
			sc.mu.Lock()
			if sc.closed == 0 {
				open++
			}
			sc.mu.Unlock()
		}
		accepted := len(rec.conns)
		rec.mu.Unlock()
		if open == 0 && accepted == len(g.traces) {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("traced pass: %d connections for %d requests, %d still open", accepted, len(g.traces), open)
		}
	}
	reqs := rec.match(g.traces, events)
	sort.Float64s(traced)
	sort.Float64s(untraced)
	res.budget = newBudget(reqs)
	res.tracedP50, res.untracedP50 = percentile(traced, 0.5), percentile(untraced, 0.5)
	var err error
	res.spanFile, err = writeSpans(outDir, w.name, reqs)
	return res, err
}

// tracedRun is what the traced node yields: the traced pass's budget,
// the micro-timings taken on its idle store, and what its shutdown and a
// reopen of its data directory cost.
type tracedRun struct {
	tracedResult
	micro      micro
	shutdown   counters // the node's registry after its close
	recoveryMs float64
	problems   []string
}

// runTraced builds a node, runs the traced pass and the micro-timings on
// it, closes it and, on a durable workload, times the recovery a restart
// would pay.
func runTraced(w workload, opt options, pop *population, tr *traffic) (tracedRun, error) {
	var run tracedRun
	c, err := startCluster(w, pop, opt.dataRoot, opt.maxd)
	if err != nil {
		return run, err
	}
	defer c.close()
	g, err := newGenerator(pop, tr, c, 1)
	if err != nil {
		return run, err
	}
	n, block, shell := w.traced, 50, 3
	if opt.quick {
		n, block, shell = 40, 20, 2
	}
	if run.tracedResult, err = tracedPass(g, w, n, block, opt.outDir); err != nil {
		return run, err
	}
	if run.micro, err = runMicro(pop, c.store, shell); err != nil {
		return run, err
	}
	if err := c.converged(pop, 256); err != nil {
		run.problems = append(run.problems, fmt.Sprintf("traced pass: %v", err))
	}
	// Closing takes the shutdown snapshot; reopening the data directory
	// is the recovery a restart pays.
	if err := c.stop(); err != nil || !w.durable {
		return run, err
	}
	run.shutdown = readCounters(c.primary)
	start := time.Now()
	st, err := rbc.OpenDurable(rbc.DurableOptions{Dir: c.primaryDir, Sync: rbc.SyncAlways})
	if err != nil {
		return run, err
	}
	run.recoveryMs = ms(time.Since(start))
	if got := st.Images().Len(); got != len(pop.clients) {
		run.problems = append(run.problems, fmt.Sprintf("recovery restored %d of %d images", got, len(pop.clients)))
	}
	return run, st.Close()
}

// runWorkload measures one workload: set-up, warm-up, five closed-loop
// segments and the correctness gates; with tracing, first the traced pass
// and the micro-timings on a node of their own, and after the segments
// the open-loop pass of a workload that has one.
func runWorkload(w workload, opt options) (workloadReport, error) {
	rep := workloadReport{Name: w.name, Why: w.why, Connections: opt.conc, ExactCounts: !w.churn}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	pop, err := newPopulation(opt.seed, opt.clients)
	if err != nil {
		return rep, err
	}
	tr := newTraffic(opt.seed, opt.clients, w.share)
	workers := opt.conc
	if openPass := opt.trace && w.openRate > 0; openPass {
		rep.OpenRate, workers = w.openRate, max(workers, int(w.openRate*backlogBound))
	}

	var traced tracedRun
	if opt.trace {
		if traced, err = runTraced(w, opt, pop, tr); err != nil {
			return rep, err
		}
		rep.SpanFile, rep.Problems = traced.spanFile, traced.problems
	}

	// Set-up. The cluster built here is the one measured; the further
	// set-ups that make setup_s a median come after the segments, so their
	// teardown (shutdown snapshots, deleting the data directories) cannot
	// land in the disk queue the measured fsyncs wait in.
	var setupSecs []float64
	setUp := func() (*cluster, error) {
		start := time.Now()
		c, err := startCluster(w, pop, opt.dataRoot, opt.maxd)
		if err == nil {
			setupSecs = append(setupSecs, time.Since(start).Seconds())
		}
		return c, err
	}
	c, err := setUp()
	if err != nil {
		return rep, err
	}
	defer c.close()
	g, err := newGenerator(pop, tr, c, workers)
	if err != nil {
		return rep, err
	}

	var churn *churner
	if w.churn {
		churn = startChurn(c, pop)
	}

	// Warm-up: a fixed count, discarded; its rate sizes the segments so
	// that five of them last the requested seconds on this machine.
	warmup := w.warmup
	if opt.quick {
		warmup = 20
	}
	warm := g.closedLoop(warmup, opt.conc)
	perSegment := opt.count
	if perSegment == 0 {
		perSegment = max(int(warm.authsPerSec()*opt.seconds/segments), 20)
	}
	rep.PerSegment = perSegment

	// Start every run from a collected heap: the population and the warm-up
	// leave garbage whose collection would otherwise fall in segment 0.
	runtime.GC()
	before := readCounters(c.primary)
	sampler := startLagSampler(c)
	segs := make([]segment, segments)
	for i := range segs {
		// A snapshot (and the compaction behind it) beside the start of
		// every segment's traffic.
		snapshot := make(chan error, 1)
		if w.churn {
			go func() { snapshot <- c.primary.State.Snapshot() }()
		} else {
			snapshot <- nil
		}
		segs[i] = g.closedLoop(perSegment, opt.conc)
		if err := <-snapshot; err != nil {
			problem("snapshot beside segment %d: %v", i, err)
		}
	}
	lags := sampler.close()
	after := readCounters(c.primary)
	// The open-loop pass: one segment's length of Poisson arrivals on the
	// same node, churn still running. Diagnostic only: see README.md.
	var open segment
	if rep.OpenRate > 0 {
		n := opt.count
		if n == 0 {
			n = int(w.openRate * opt.seconds / segments)
		}
		rep.OpenRequests = n
		open = g.openLoop(poissonSchedule(opt.seed, n, w.openRate))
		if wrong := open.fails[failDenied] + open.fails[failWrongKey]; wrong > 0 {
			problem("%d of %d open-loop requests were answered wrongly", wrong, n)
		}
	}
	lastReply := time.Now()
	if churn != nil {
		if err := churn.close(); err != nil {
			problem("churn: %v", err)
		}
	}

	// Gates: every timed request was verified as it completed; now the
	// follower must converge and an impostor must be refused.
	converged := 1.0
	err = c.converged(pop, 256)
	catchup := time.Since(lastReply)
	if err != nil {
		converged = 0
		problem("replication: %v", err)
	}
	impostor := g.workers[0].do(request{client: tr.order[0], noise: opt.maxd + 1}, time.Time{})
	if impostor.fail != failDenied {
		problem("impostor at d=%d was not refused: %s %v", opt.maxd+1, failNames[impostor.fail], impostor.err)
	}
	dialErrors := g.dialErrors.Load()
	if err := c.close(); err != nil {
		return rep, err
	}
	spent := func() (total time.Duration) {
		for _, s := range setupSecs {
			total += time.Duration(s * float64(time.Second))
		}
		return total
	}
	for len(setupSecs) < minSetups || (spent() < setupBudget && len(setupSecs) < maxSetups) {
		spare, err := setUp()
		if err != nil {
			return rep, err
		}
		if err := spare.close(); err != nil {
			return rep, err
		}
	}

	// End-to-end metrics: the median of the five segments.
	var (
		thr, p50, p90, p99, cpuPer []float64
		authed                     int
		wall, maxMs                float64
	)
	rep.Fails = map[string]int{}
	for _, s := range segs {
		rep.Attempted += s.attempted
		rep.Failed += s.failed()
		authed += len(s.latency)
		wall += s.wall.Seconds()
		for kind, n := range s.fails {
			if kind != okay && n > 0 {
				rep.Fails[failNames[kind]] += n
			}
		}
		thr = append(thr, s.authsPerSec())
		p50 = append(p50, percentile(s.latency, 0.50))
		p90 = append(p90, percentile(s.latency, 0.90))
		p99 = append(p99, percentile(s.latency, 0.99))
		cpuPer = append(cpuPer, s.cpuMsPerAuth())
		maxMs = max(maxMs, percentile(s.latency, 1))
	}
	// A request the server answered wrongly is a correctness problem; one
	// it could not take in time (transport, server error, shed) is a
	// failure, counted but not wrong.
	if wrong := rep.Fails[failNames[failDenied]] + rep.Fails[failNames[failWrongKey]]; wrong > 0 {
		problem("%d of %d timed requests were answered wrongly %v", wrong, rep.Attempted, rep.Fails)
	}
	perSegmentValues := map[string][]float64{
		"setup_s": setupSecs, "auths_per_s": thr, "p50_ms": p50, "p90_ms": p90, "cpu_ms_per_auth": cpuPer,
	}
	rep.EndToEnd = map[string]metric{}
	for _, d := range endToEndDefs {
		m := overSegments(d.Unit, perSegmentValues[d.Name])
		if d.Name == "p50_ms" || d.Name == "p90_ms" {
			m.Samples = len(segs[0].latency)
		}
		rep.EndToEnd[d.Name] = m
	}
	rep.Correct = len(rep.Problems) == 0
	if !opt.trace {
		return rep, nil
	}

	// Per-layer metrics.
	var (
		auths     = float64(max(authed, 1))
		b         = traced.budget
		mt        = traced.micro
		fsyncs    = float64(after.fsync.Count - before.fsync.Count)
		fsyncSecs = after.fsync.Sum - before.fsync.Sum
		submitted = float64(after.sched.Submitted - before.sched.Submitted)
		served    = float64(after.sched.Served() - before.sched.Served())
		// What the two self times hold that a micro-timing prices: two
		// image unseals, the address map, key generation and the codec.
		selfNs = b.caSelf + b.reqSelf
		priced = min(selfNs, 2*mt.imageGet+mt.addrmap+mt.keygen+mt.codec)
	)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	values := map[string]float64{
		"fail_share": ratio(float64(rep.Failed), float64(rep.Attempted)),

		"client.p99_ms":      median(p99),
		"client.max_ms":      maxMs,
		"client.dial_us":     b.dial / 1e3,
		"client.respond_us":  mt.respond / 1e3,
		"client.dial_errors": float64(dialErrors),

		"client.open_p50_ms":     percentile(open.latency, 0.50),
		"client.open_p90_ms":     percentile(open.latency, 0.90),
		"client.open_fail_share": ratio(float64(open.failed()), float64(open.attempted)),
		"client.late_p99_ms":     percentile(open.late, 0.99),
		"client.inflight_max":    float64(open.inflightMax),

		"netproto.codec_ns_per_auth": mt.codec,
		"netproto.bytes_per_auth":    b.bytes,
		"netproto.io_calls_per_auth": b.calls,
		"netproto.conn_us":           b.conn / 1e3,
		"netproto.read_wait_us":      b.readWait / 1e3,
		"netproto.write_us":          b.write / 1e3,
		"netproto.errors":            float64(after.netErrors - before.netErrors),

		"core.image_get_us":         mt.imageGet / 1e3,
		"core.addrmap_us":           mt.addrmap / 1e3,
		"core.inline_us":            b.inline / 1e3,
		"core.inline_share":         1 - submitted/auths,
		"core.ca_self_us":           b.caSelf / 1e3,
		"core.match_ns_per_seed":    mt.matchPerSeed,
		"cryptoalg.keygen_us":       mt.keygen / 1e3,
		"keccak.scalar_ns_per_hash": mt.scalarHash,

		"durable.appends_per_auth":   float64(after.appends-before.appends) / auths,
		"durable.fsyncs_per_auth":    fsyncs / auths,
		"durable.wal_bytes_per_auth": float64(after.appendBytes-before.appendBytes) / auths,
		"durable.fsync_mean_us":      ratio(fsyncSecs, fsyncs) * 1e6,
		"durable.fsync_max_ms":       after.fsync.Max * 1e3,
		"durable.fsync_busy_share":   ratio(fsyncSecs, wall),
		"durable.append_p50_us":      percentile(b.journalAll, 0.50) / 1e3,
		"durable.append_p99_us":      percentile(b.journalAll, 0.99) / 1e3,
		"durable.snapshot_ms":        traced.shutdown.snapshot.Max * 1e3,
		"durable.snapshot_mb":        float64(traced.shutdown.snapshotBytes) / (1 << 20),
		"durable.rotations":          float64(after.rotations - before.rotations),
		"durable.recovery_ms":        traced.recoveryMs,

		"replica.lag_records_p50": percentile(lags, 0.50),
		"replica.lag_records_max": percentile(lags, 1),
		"replica.catchup_ms":      ms(catchup),
		"replica.converged":       converged,

		"sched.submitted_per_auth":  submitted / auths,
		"sched.queue_wait_mean_us":  ratio(us(after.sched.QueueWaitTotal-before.sched.QueueWaitTotal), served),
		"sched.queue_wait_max_ms":   ms(after.sched.QueueWaitMax),
		"sched.service_mean_ms":     ratio(ms(after.sched.ServiceTotal-before.sched.ServiceTotal), served),
		"sched.shed":                float64(after.sched.Shed - before.sched.Shed),
		"sched.hedged":              float64(after.sched.Hedged - before.sched.Hedged),
		"sched.deadline_infeasible": float64(after.sched.DeadlineInfeasible - before.sched.DeadlineInfeasible),
		"sched.overhead_us":         (b.service - b.search) / 1e3,

		"cpu.search_ms_d2":   b.search / 1e6,
		"cpu.seeds_per_s_w1": mt.seedsPerSecW1,
		"cpu.seeds_per_s_wN": mt.seedsPerSecWN,
		"cpu.scaling_eff":    ratio(mt.seedsPerSecWN, mt.seedsPerSecW1*float64(runtime.GOMAXPROCS(0))),

		"bitslice.compress_ns_per_seed":    mt.compressPerSeed,
		"bitslice.pack_ns_per_seed":        mt.packPerSeed,
		"bitslice.bytes_per_seed_computed": computedBytesPerSeed(),
		"iterseq.fill_ns_per_seed":         mt.fillPerSeed,

		"obs.trace_events_per_auth": b.events,
		"obs.trace_overhead_share":  ratio(traced.tracedP50-traced.untracedP50, traced.untracedP50),

		"proc.alloc_kb_per_auth": float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / auths,
		"proc.allocs_per_auth":   float64(after.mem.Mallocs-before.mem.Mallocs) / auths,
		"proc.gc_pause_ms":       float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		"proc.rss_mb":            peakRSSMB(),

		"budget.unattributed_share": ratio(selfNs-priced, b.latency),
	}
	rep.PerLayer = map[string]metric{}
	for _, d := range perLayerDefs {
		v, ok := values[d.Name]
		if !ok {
			return rep, fmt.Errorf("per-layer metric %s has no value", d.Name)
		}
		rep.PerLayer[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return rep, nil
}
