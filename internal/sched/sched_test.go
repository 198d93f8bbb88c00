package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

// Scheduler must itself satisfy the Backend contract it schedules.
var _ core.Backend = (*Scheduler)(nil)

// blockingBackend parks every Search until released (or ctx cancels),
// so tests can hold worker slots and fill the queue deterministically.
type blockingBackend struct {
	entered chan struct{} // one tick per Search that starts
	release chan struct{} // closed to let all searches finish
}

func (b *blockingBackend) Name() string { return "blocking" }

func (b *blockingBackend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	select {
	case <-b.release:
		return core.Result{Found: true, SeedsCovered: 1}, nil
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

// TestConcurrentAuthenticationsThroughScheduler drives 32 goroutines,
// each a distinct enrolled client, through one CA whose backend is a
// 4-worker scheduler over the real CPU engine. Run with -race.
func TestConcurrentAuthenticationsThroughScheduler(t *testing.T) {
	store, err := core.NewImageStore([32]byte{0x5C})
	if err != nil {
		t.Fatal(err)
	}
	ra := core.NewRA()
	s := New(&cpu.Backend{Alg: core.SHA3, Workers: 2}, Config{Workers: 4, QueueDepth: 64})
	defer s.Close()
	ca, err := core.NewCA(store, s, &aeskg.Generator{}, ra, core.CAConfig{
		Alg:         core.SHA3,
		MaxDistance: 3,
		// Route every shell through the scheduler: this test counts all
		// 32 authentications in the pool's stats, and the inline fast
		// path would otherwise complete these low-noise devices at d <= 1
		// without ever submitting.
		InlineDepth: core.InlineDisabled,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 32
	devices := make([]*puf.Device, clients)
	// Low-noise devices: reads stay within a couple of bits of the
	// enrolled image, so every search succeeds inside MaxDistance.
	profile := puf.Profile{BaseError: 0.1 / 256.0}
	for i := range devices {
		dev, err := puf.NewDevice(uint64(7000+i), 1024, profile)
		if err != nil {
			t.Fatal(err)
		}
		im, err := puf.Enroll(dev, 31)
		if err != nil {
			t.Fatal(err)
		}
		if err := ca.Enroll(core.ClientID(fmt.Sprintf("client-%d", i)), im); err != nil {
			t.Fatal(err)
		}
		devices[i] = dev
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := core.ClientID(fmt.Sprintf("client-%d", i))
			client := &core.Client{ID: id, Device: devices[i]}
			ch, err := ca.BeginHandshake(id)
			if err != nil {
				errs <- fmt.Errorf("%s handshake: %w", id, err)
				return
			}
			m1, err := client.Respond(ch)
			if err != nil {
				errs <- fmt.Errorf("%s respond: %w", id, err)
				return
			}
			res, err := ca.Authenticate(context.Background(), core.AuthRequest{Client: id, Nonce: ch.Nonce, M1: m1})
			if err != nil {
				errs <- fmt.Errorf("%s authenticate: %w", id, err)
				return
			}
			if !res.Authenticated {
				errs <- fmt.Errorf("%s not authenticated", id)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Submitted != clients {
		t.Errorf("Submitted = %d, want %d", st.Submitted, clients)
	}
	if st.Completed != clients {
		t.Errorf("Completed = %d, want %d (stats: %+v)", st.Completed, clients, st)
	}
	if st.Served() != clients {
		t.Errorf("Served = %d, want %d", st.Served(), clients)
	}
	if st.ServiceTotal <= 0 {
		t.Errorf("ServiceTotal = %v, want > 0", st.ServiceTotal)
	}
	// 32 searches over 4 workers: at least 28 had to queue.
	if st.QueueWaitTotal <= 0 {
		t.Errorf("QueueWaitTotal = %v, want > 0", st.QueueWaitTotal)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("gauges not drained: inflight=%d queued=%d", st.InFlight, st.Queued)
	}
}

// TestQueueFullRejectsWithErrOverloaded fills all worker slots and the
// whole queue, then expects the next submission to be rejected
// immediately.
func TestQueueFullRejectsWithErrOverloaded(t *testing.T) {
	bk := &blockingBackend{
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	s := New(bk, Config{Workers: 2, QueueDepth: 2})
	defer s.Close()

	var wg sync.WaitGroup
	results := make(chan error, 4)
	submit := func() {
		defer wg.Done()
		_, err := s.Search(context.Background(), core.Task{})
		results <- err
	}
	// Two searches occupy the workers...
	wg.Add(2)
	go submit()
	go submit()
	<-bk.entered
	<-bk.entered
	// ...two more fill the queue...
	wg.Add(2)
	go submit()
	go submit()
	waitFor(t, func() bool { return s.Stats().Queued == 2 })

	// ...and the fifth must bounce without blocking.
	start := time.Now()
	_, err := s.Search(context.Background(), core.Task{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v, want immediate", d)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}

	close(bk.release)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("admitted search failed: %v", err)
		}
	}
	st := s.Stats()
	if st.Completed != 4 {
		t.Errorf("Completed = %d, want 4", st.Completed)
	}
}

// TestCancelStopsExhaustiveCPUSearch proves a context cancel terminates
// a long exhaustive search on the real CPU engine promptly: the partial
// Result must cover strictly fewer seeds than the exhaustive total.
func TestCancelStopsExhaustiveCPUSearch(t *testing.T) {
	s := New(&cpu.Backend{Alg: core.SHA3, Workers: 2}, Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// A target no candidate matches, so the search would cover the whole
	// d<=3 ball (~2.8M seeds) if left alone.
	base := u256.New(1, 2, 3, 4)
	task := core.Task{
		Base:          base,
		Target:        core.HashSeed(core.SHA3, u256.New(5, 6, 7, 8).FlipBit(0).FlipBit(9).FlipBit(200)),
		MaxDistance:   3,
		Method:        iterseq.GrayCode,
		Exhaustive:    true,
		CheckInterval: 64,
	}
	total := uint64(1)
	for d := 1; d <= 3; d++ {
		n, _ := combin.Binomial64(256, d)
		total += n
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := s.Search(ctx, task)
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if res.SeedsCovered == 0 {
		t.Error("cancelled search reported no coverage at all")
	}
	if res.SeedsCovered >= total {
		t.Errorf("SeedsCovered = %d, want strictly below exhaustive total %d", res.SeedsCovered, total)
	}
	// Cancellation latency is one CheckInterval per worker, not the full
	// multi-second exhaustive search.
	if elapsed > 5*time.Second {
		t.Errorf("cancel took %v, want prompt stop", elapsed)
	}
	if got := s.Stats().Cancelled; got != 1 {
		t.Errorf("Cancelled = %d, want 1", got)
	}
}

// TestCancelWhileQueuedReturnsImmediately cancels a search that never
// reached a worker.
func TestCancelWhileQueuedReturnsImmediately(t *testing.T) {
	bk := &blockingBackend{
		entered: make(chan struct{}, 2),
		release: make(chan struct{}),
	}
	s := New(bk, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Search(context.Background(), core.Task{})
	}()
	<-bk.entered // worker busy

	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	queuedErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := s.Search(ctx, core.Task{})
		queuedErr <- err
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	cancel()

	select {
	case err := <-queuedErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("expected context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued search did not return after cancel")
	}
	close(bk.release)
	wg.Wait()
}

// TestSchedulerClosedRejects verifies submissions after Close fail fast
// and already-queued work still completes.
func TestSchedulerClosedRejects(t *testing.T) {
	bk := &blockingBackend{release: make(chan struct{})}
	close(bk.release) // never block
	s := New(bk, Config{Workers: 1, QueueDepth: 1})
	if _, err := s.Search(context.Background(), core.Task{}); err != nil {
		t.Fatalf("search before close: %v", err)
	}
	s.Close()
	if _, err := s.Search(context.Background(), core.Task{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	// Close is idempotent.
	s.Close()
}

// TestDerivedDeadlineReclaimsWorker verifies the TimeLimit-derived
// context deadline frees the worker slot even when the backend ignores
// its TimeLimit.
func TestDerivedDeadlineReclaimsWorker(t *testing.T) {
	bk := &blockingBackend{release: make(chan struct{})} // blocks forever unless ctx fires
	s := New(bk, Config{Workers: 1, QueueDepth: 1, DeadlineGrace: time.Millisecond})
	defer s.Close()

	start := time.Now()
	_, err := s.Search(context.Background(), core.Task{TimeLimit: 20 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadline enforcement took %v", d)
	}
	if got := s.Stats().Cancelled; got != 1 {
		t.Errorf("Cancelled = %d, want 1", got)
	}
}

// TestCancelledWhileQueuedCountsOnceWithoutWaitSkew locks in the stale-
// job discard accounting: a search cancelled while queued must count
// exactly once as Cancelled and must not contribute its (abandonment-
// inflated) queue time to QueueWaitTotal/Max.
func TestCancelledWhileQueuedCountsOnceWithoutWaitSkew(t *testing.T) {
	bk := &blockingBackend{
		entered: make(chan struct{}, 2),
		release: make(chan struct{}),
	}
	s := New(bk, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Search(context.Background(), core.Task{})
	}()
	<-bk.entered // worker busy

	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Search(ctx, core.Task{})
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	cancel()
	// Let the stale job age in the queue well past its cancellation: the
	// buggy accounting would fold this whole wait into the aggregates.
	time.Sleep(100 * time.Millisecond)
	close(bk.release)
	wg.Wait()
	waitFor(t, func() bool { return s.Stats().Served() == 2 })

	st := s.Stats()
	if st.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want exactly 1", st.Cancelled)
	}
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1", st.Completed)
	}
	// The served search never queued behind anything for long; the
	// discarded one must not have contributed its ~100 ms.
	if st.QueueWaitMax >= 100*time.Millisecond {
		t.Errorf("QueueWaitMax = %v, want < 100ms (stale job's wait leaked into stats)", st.QueueWaitMax)
	}
	if st.QueueWaitTotal >= 100*time.Millisecond {
		t.Errorf("QueueWaitTotal = %v, want < 100ms", st.QueueWaitTotal)
	}
}

// TestCloseFailsQueuedJobsWithErrClosed locks in the Close contract:
// searches still queued behind a long-running one must be resolved with
// ErrClosed promptly instead of blocking on the busy worker. Run with
// -race.
func TestCloseFailsQueuedJobsWithErrClosed(t *testing.T) {
	bk := &blockingBackend{
		entered: make(chan struct{}, 2),
		release: make(chan struct{}),
	}
	s := New(bk, Config{Workers: 1, QueueDepth: 4})

	first := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), core.Task{})
		first <- err
	}()
	<-bk.entered // worker busy, will block until release

	const queued = 3
	queuedErrs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			_, err := s.Search(context.Background(), core.Task{})
			queuedErrs <- err
		}()
	}
	waitFor(t, func() bool { return s.Stats().Queued == queued })
	// Age the queued jobs so a wait-accounting leak would be visible in
	// the final QueueWait assertions.
	time.Sleep(100 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()

	// The queued callers must get out with ErrClosed while the worker is
	// still occupied — no waiting behind the in-flight search.
	for i := 0; i < queued; i++ {
		select {
		case err := <-queuedErrs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("queued search returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued search still blocked after Close")
		}
	}

	close(bk.release)
	if err := <-first; err != nil {
		t.Errorf("in-flight search failed: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}

	st := s.Stats()
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1", st.Completed)
	}
	if st.Failed != queued {
		t.Errorf("Failed = %d, want %d (ErrClosed discards)", st.Failed, queued)
	}
	// Only the served search's (instant) pickup may contribute: the three
	// discarded jobs aged >= 100 ms each and must be excluded.
	if st.QueueWaitTotal >= 100*time.Millisecond {
		t.Errorf("QueueWaitTotal = %v, want < 100ms (discards must not skew waits)", st.QueueWaitTotal)
	}
}

// TestTraceEventsAndHistograms checks the observability wiring: one
// authentication-sized search through a scheduler over the real CPU
// engine must leave the canonical event trail and one observation in
// each latency histogram.
func TestTraceEventsAndHistograms(t *testing.T) {
	ring := obs.NewRing(64)
	reg := obs.NewRegistry()
	s := New(&cpu.Backend{Alg: core.SHA3, Workers: 2},
		Config{Workers: 1, QueueDepth: 4, Trace: ring, Metrics: reg})
	defer s.Close()

	base := u256.New(11, 22, 33, 44)
	seed := base.FlipBit(7) // match at distance 1
	res, err := s.Search(context.Background(), core.Task{
		Base:        base,
		Target:      core.HashSeed(core.SHA3, seed),
		MaxDistance: 2,
		Method:      iterseq.GrayCode,
	})
	if err != nil || !res.Found || res.Distance != 1 {
		t.Fatalf("search: res=%+v err=%v", res, err)
	}

	events := ring.Snapshot()
	var kinds []string
	var searchID uint64
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
		if ev.Search == 0 {
			t.Errorf("event %s missing search ID", ev.Kind)
		} else if searchID == 0 {
			searchID = ev.Search
		} else if ev.Search != searchID {
			t.Errorf("event %s has search ID %d, want %d", ev.Kind, ev.Search, searchID)
		}
	}
	want := []string{
		obs.KindEnqueue, obs.KindDequeue, obs.KindSearchStart,
		obs.KindShell, obs.KindSearchEnd, obs.KindDone,
	}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("trace kinds = %v, want %v", kinds, want)
	}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindSearchEnd:
			if ev.Detail != "found" || ev.Depth != 1 || ev.N == 0 {
				t.Errorf("search.end = %+v, want found at depth 1 with hashes", ev)
			}
		case obs.KindShell:
			if ev.Depth != 1 || ev.N == 0 {
				t.Errorf("search.shell = %+v, want depth 1 with coverage", ev)
			}
		case obs.KindDone:
			if ev.Detail != "completed" {
				t.Errorf("sched.done detail = %q, want completed", ev.Detail)
			}
		}
	}

	snap := reg.Snapshot()
	qw, ok := snap["sched.queue_wait_seconds"].(obs.HistogramSnapshot)
	if !ok || qw.Count != 1 {
		t.Errorf("queue-wait histogram = %#v, want one observation", snap["sched.queue_wait_seconds"])
	}
	sv, ok := snap["sched.service_seconds"].(obs.HistogramSnapshot)
	if !ok || sv.Count != 1 {
		t.Errorf("service histogram = %#v, want one observation", snap["sched.service_seconds"])
	}
}

// waitFor polls cond until true or a generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// alternateBackend straggles forever on the primary flight and answers
// instantly on the alternate one, so a hedge must reach SearchAlternate
// to finish.
type alternateBackend struct {
	altCalls chan struct{}
}

func (b *alternateBackend) Name() string { return "alternate" }

func (b *alternateBackend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	<-ctx.Done()
	return core.Result{}, ctx.Err()
}

func (b *alternateBackend) SearchAlternate(ctx context.Context, task core.Task) (core.Result, error) {
	b.altCalls <- struct{}{}
	return core.Result{Found: true, SeedsCovered: 1}, nil
}

// TestHedgeReachesAlternateSearcher pins the planner integration: when
// the backend offers a second-best engine (core.AlternateSearcher), the
// hedge flight must run there instead of re-rolling the same engine.
func TestHedgeReachesAlternateSearcher(t *testing.T) {
	b := &alternateBackend{altCalls: make(chan struct{}, 1)}
	s := New(b, Config{
		Workers:    1,
		QueueDepth: 4,
		Hedge:      HedgeConfig{Enabled: true, Delay: 5 * time.Millisecond},
	})
	defer s.Close()

	res, err := s.Search(context.Background(), core.Task{MaxDistance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("hedged search result %+v, want Found", res)
	}
	select {
	case <-b.altCalls:
	default:
		t.Fatal("SearchAlternate was never invoked")
	}
	st := s.Stats()
	if st.Hedged != 1 {
		t.Fatalf("stats Hedged=%d, want 1", st.Hedged)
	}
}

// etaBackend answers instantly but claims a fixed per-task ETA, like
// the planner's core.ETAEstimator implementation.
type etaBackend struct {
	eta time.Duration
}

func (b *etaBackend) Name() string { return "eta" }

func (b *etaBackend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	return core.Result{Found: true, SeedsCovered: 1}, nil
}

func (b *etaBackend) EstimateETA(task core.Task) (time.Duration, bool) {
	return b.eta, true
}

// TestDeadlineAdmissionUsesBackendETA: a backend-supplied ETA must drive
// deadline admission — even before the scheduler's own service-time EWMA
// has warmed up — refusing deadlines the chosen engine cannot make and
// admitting ones it can.
func TestDeadlineAdmissionUsesBackendETA(t *testing.T) {
	b := &etaBackend{eta: time.Hour}
	s := New(b, Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	task := core.Task{MaxDistance: 1, Deadline: time.Now().Add(time.Second)}
	if _, err := s.Search(context.Background(), task); !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("hour-long ETA admitted against a 1s deadline: %v", err)
	}

	b.eta = time.Millisecond
	res, err := s.Search(context.Background(), core.Task{
		MaxDistance: 1, Deadline: time.Now().Add(time.Second),
	})
	if err != nil || !res.Found {
		t.Fatalf("feasible deadline refused: %+v, %v", res, err)
	}
}
