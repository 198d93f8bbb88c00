package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

// TestInlineFastPathBypassesScheduler is the acceptance test for the
// distance-progressive serving split: a low-noise device authenticates
// at d <= 1, which the CA must complete inline on the host without the
// search ever entering the scheduler queue.
func TestInlineFastPathBypassesScheduler(t *testing.T) {
	store, err := core.NewImageStore([32]byte{0x5C})
	if err != nil {
		t.Fatal(err)
	}
	s := New(&cpu.Backend{Alg: core.SHA3, Workers: 2}, Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	// Default CAConfig: InlineDepth 0 means DefaultInlineDepth, so
	// shells d <= 1 run inline and only d >= 2 escalates to the backend.
	ca, err := core.NewCA(store, s, &aeskg.Generator{}, core.NewRA(), core.CAConfig{
		Alg:         core.SHA3,
		MaxDistance: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A noiseless device reads back the enrolled image exactly: the
	// match is at d = 0, inside the inline window.
	dev, err := puf.NewDevice(9001, 1024, puf.Profile{BaseError: 0})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 31)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll("inline-client", im); err != nil {
		t.Fatal(err)
	}

	client := &core.Client{ID: "inline-client", Device: dev}
	ch, err := ca.BeginHandshake("inline-client")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := client.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ca.Authenticate(context.Background(),
		core.AuthRequest{Client: "inline-client", Nonce: ch.Nonce, M1: m1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Authenticated {
		t.Fatal("noiseless device not authenticated")
	}
	if res.Search.Distance > core.DefaultInlineDepth {
		t.Fatalf("match at d=%d, expected inside the inline window (<= %d)",
			res.Search.Distance, core.DefaultInlineDepth)
	}

	st := s.Stats()
	if st.Submitted != 0 || st.Queued != 0 || st.Served() != 0 {
		t.Errorf("inline auth leaked into the scheduler: %+v", st)
	}

	// Same client, one noisy read pushed past the inline window: the
	// CA must escalate to the scheduler.
	ch2, err := ca.BeginHandshake("inline-client")
	if err != nil {
		t.Fatal(err)
	}
	noisy := &core.Client{ID: "inline-client", Device: dev, NoiseBits: core.DefaultInlineDepth + 1}
	m1, err = noisy.Respond(ch2)
	if err != nil {
		t.Fatal(err)
	}
	res, err = ca.Authenticate(context.Background(),
		core.AuthRequest{Client: "inline-client", Nonce: ch2.Nonce, M1: m1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Authenticated {
		t.Fatal("noisy device not authenticated")
	}
	if got := s.Stats().Submitted; got != 1 {
		t.Errorf("escalated auth: Submitted = %d, want 1", got)
	}
}

// TestDeadlineGraceNeverExtendsCallerDeadline is the regression test
// for the DeadlineGrace fix: the wall-clock deadline derived from
// TimeLimit+grace must never extend an earlier caller deadline — the
// effective deadline is the minimum of the two.
func TestDeadlineGraceNeverExtendsCallerDeadline(t *testing.T) {
	bk := &blockingBackend{release: make(chan struct{})} // blocks until ctx fires
	s := New(bk, Config{Workers: 1, QueueDepth: 1, DeadlineGrace: time.Second})
	defer s.Close()

	// TimeLimit + grace would allow 11s; the task's own deadline is
	// 50ms away and must win.
	start := time.Now()
	_, err := s.Search(context.Background(),
		core.Task{TimeLimit: 10 * time.Second, Deadline: time.Now().Add(50 * time.Millisecond)})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("caller deadline enforced after %v; the derived TimeLimit deadline extended it", elapsed)
	}

	// Same guarantee for a deadline carried by the submission context.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err = s.Search(ctx, core.Task{TimeLimit: 10 * time.Second})
	elapsed = time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("context deadline enforced after %v", elapsed)
	}
}

// orderBackend records the QoS class of each search in arrival order.
// Searches return immediately, so with one worker the recorded order is
// exactly the scheduler's dequeue order.
type orderBackend struct {
	mu    sync.Mutex
	order []core.QoSClass
}

func (b *orderBackend) Name() string { return "order" }

func (b *orderBackend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	b.mu.Lock()
	b.order = append(b.order, task.Class)
	b.mu.Unlock()
	return core.Result{Found: true, SeedsCovered: 1}, nil
}

// TestInteractiveNeverWaitsBehindBackground pins the multi-class
// property: an interactive search submitted behind K queued background
// searches is dequeued before all of them (strict priority, aging
// disabled for determinism).
func TestInteractiveNeverWaitsBehindBackground(t *testing.T) {
	gate := &blockingBackend{
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	ord := &orderBackend{}
	// gatedBackend: first search blocks on gate (holding the single
	// worker), the rest record their dequeue order.
	first := &atomic.Bool{}
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		if first.CompareAndSwap(false, true) {
			return gate.Search(ctx, task)
		}
		return ord.Search(ctx, task)
	})
	s := New(bk, Config{Workers: 1, QueueDepth: 16, AgingStep: -1})
	defer s.Close()

	var wg sync.WaitGroup
	submit := func(class core.QoSClass) {
		defer wg.Done()
		if _, err := s.Search(context.Background(), core.Task{Class: class}); err != nil {
			t.Errorf("submit class %v: %v", class, err)
		}
	}
	wg.Add(1)
	go submit(core.ClassBackground) // occupies the worker
	<-gate.entered

	const background = 8
	for i := 0; i < background; i++ {
		wg.Add(1)
		go submit(core.ClassBackground)
	}
	waitFor(t, func() bool { return s.Stats().Queued == background })
	wg.Add(1)
	go submit(core.ClassInteractive)
	waitFor(t, func() bool { return s.Stats().Queued == background+1 })

	close(gate.release)
	wg.Wait()

	ord.mu.Lock()
	order := append([]core.QoSClass(nil), ord.order...)
	ord.mu.Unlock()
	if len(order) != background+1 {
		t.Fatalf("recorded %d dequeues, want %d", len(order), background+1)
	}
	if order[0] != core.ClassInteractive {
		t.Errorf("dequeue order %v: interactive waited behind background work", order)
	}
}

// TestAgingPromotesBackground pins the starvation bound: a background
// search that has waited AgingStep queue time per class level competes
// as interactive, so it is dequeued ahead of a freshly-arrived
// interactive search (ties go to the earliest enqueue).
func TestAgingPromotesBackground(t *testing.T) {
	gate := &blockingBackend{
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	ord := &orderBackend{}
	first := &atomic.Bool{}
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		if first.CompareAndSwap(false, true) {
			return gate.Search(ctx, task)
		}
		return ord.Search(ctx, task)
	})
	const step = 20 * time.Millisecond
	s := New(bk, Config{Workers: 1, QueueDepth: 16, AgingStep: step})
	defer s.Close()

	var wg sync.WaitGroup
	submit := func(class core.QoSClass) {
		defer wg.Done()
		if _, err := s.Search(context.Background(), core.Task{Class: class}); err != nil {
			t.Errorf("submit class %v: %v", class, err)
		}
	}
	wg.Add(1)
	go submit(core.ClassInteractive) // occupies the worker
	<-gate.entered

	wg.Add(1)
	go submit(core.ClassBackground)
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	// Age the background search past two full steps: its effective
	// level is now 0, level with any interactive arrival.
	time.Sleep(3 * step)
	wg.Add(1)
	go submit(core.ClassInteractive)
	waitFor(t, func() bool { return s.Stats().Queued == 2 })

	close(gate.release)
	wg.Wait()

	ord.mu.Lock()
	order := append([]core.QoSClass(nil), ord.order...)
	ord.mu.Unlock()
	if len(order) != 2 || order[0] != core.ClassBackground {
		t.Errorf("dequeue order %v: aged background search was starved by a fresh interactive one", order)
	}
}

// backendFunc adapts a function to core.Backend for test doubles.
type backendFunc func(context.Context, core.Task) (core.Result, error)

func (f backendFunc) Name() string { return "func" }
func (f backendFunc) Search(ctx context.Context, task core.Task) (core.Result, error) {
	return f(ctx, task)
}

// TestOverloadShedsLargestDistanceTail pins the shed property: with the
// queue full, an arriving search evicts only a strictly worse queued
// one — lowest class first, then largest MaxDistance — and the shed set
// under a synthetic interactive burst is exactly the d-large background
// tail. Interactive searches are never shed.
func TestOverloadShedsLargestDistanceTail(t *testing.T) {
	gate := &blockingBackend{
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	s := New(gate, Config{Workers: 1, QueueDepth: 4, AgingStep: -1})
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(map[string]chan error)
	submit := func(name string, class core.QoSClass, maxD int) {
		ch := make(chan error, 1)
		errs[name] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Search(context.Background(), core.Task{MaxDistance: maxD, Class: class})
			ch <- err
		}()
	}

	submit("blocker", core.ClassInteractive, 1) // occupies the worker
	<-gate.entered

	// Fill the queue: one interactive, one batch, two background at
	// different distance bounds. The background d=6 search is the worst.
	submit("i1", core.ClassInteractive, 1)
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	submit("b2", core.ClassBatch, 2)
	waitFor(t, func() bool { return s.Stats().Queued == 2 })
	submit("g3", core.ClassBackground, 3)
	waitFor(t, func() bool { return s.Stats().Queued == 3 })
	submit("g6", core.ClassBackground, 6)
	waitFor(t, func() bool { return s.Stats().Queued == 4 })

	// Interactive burst into the full queue: each arrival must evict
	// the worst remaining background search, largest distance first.
	submit("i2", core.ClassInteractive, 1)
	if err := <-errs["g6"]; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("g6 (worst) not shed first: %v", err)
	}
	waitFor(t, func() bool { return s.Stats().Queued == 4 })
	submit("i3", core.ClassInteractive, 1)
	if err := <-errs["g3"]; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("g3 not shed second: %v", err)
	}
	waitFor(t, func() bool { return s.Stats().Queued == 4 })

	// An arrival that is not strictly better than anything queued is
	// rejected itself — ties never displace queued work.
	_, err := s.Search(context.Background(), core.Task{MaxDistance: 2, Class: core.ClassBatch})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("tie arrival: expected ErrOverloaded, got %v", err)
	}

	close(gate.release)
	wg.Wait()

	// Everything interactive completed; the shed set is exactly the
	// background tail, largest distance first.
	for _, name := range []string{"blocker", "i1", "i2", "i3", "b2"} {
		if err := <-errs[name]; err != nil {
			t.Errorf("%s failed: %v", name, err)
		}
	}
	st := s.Stats()
	if st.Shed != 2 {
		t.Errorf("Shed = %d, want 2", st.Shed)
	}
	if st.ByClass[core.ClassBackground].Shed != 2 {
		t.Errorf("background Shed = %d, want 2", st.ByClass[core.ClassBackground].Shed)
	}
	if st.ByClass[core.ClassInteractive].Shed != 0 || st.ByClass[core.ClassBatch].Shed != 0 {
		t.Errorf("interactive/batch work was shed: %+v", st.ByClass)
	}
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1 (the tie arrival)", st.Rejected)
	}
}

// TestHedgedDispatchNeverDoubleCounts pins the hedging property: a
// hedged search runs two backend flights but resolves to exactly one
// Result and one outcome — Served() stays equal to admitted work, and
// the first flight's unfinished shell is dropped from the coverage the
// hand-off covers again.
func TestHedgedDispatchNeverDoubleCounts(t *testing.T) {
	var calls atomic.Int32
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		if calls.Add(1) == 1 {
			// Primary flight straggles until the hedge trigger cancels
			// it, mid-way through shell 1 (as core.SearchBall reports).
			<-ctx.Done()
			return core.Result{SeedsCovered: 7, Shells: []core.ShellStat{{Distance: 1, SeedsCovered: 7}}}, ctx.Err()
		}
		return core.Result{Found: true, SeedsCovered: 42}, nil
	})
	s := New(bk, Config{Workers: 1, QueueDepth: 4,
		Hedge: HedgeConfig{Enabled: true, Delay: 20 * time.Millisecond}})
	defer s.Close()

	res, err := s.Search(context.Background(), core.Task{})
	if err != nil {
		t.Fatalf("hedged search failed: %v", err)
	}
	if !res.Found || res.SeedsCovered != 42 {
		t.Fatalf("result %+v, want the hedge flight's (42 seeds)", res)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend saw %d flights, want 2", got)
	}

	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Served() != 1 {
		t.Errorf("double-counted hedge: %+v", st)
	}
	if st.Hedged != 1 {
		t.Errorf("Hedged = %d, want 1", st.Hedged)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after hedged search resolved", st.InFlight)
	}
}

// stragglerBackend's primary engine is Algorithm 1 on an engine that
// finishes shell 1 and stalls partway into shell 2 until cancelled; its
// alternate is a real engine.
type stragglerBackend struct {
	alt     core.Backend
	partial uint64 // seeds the stalled shell 2 reports
}

func (b *stragglerBackend) Name() string { return "straggler" }

func (b *stragglerBackend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	return core.SearchBall(ctx, task, core.Engine{
		Name:  b.Name(),
		Probe: core.HashProbe(task.Target.Alg, task.Target),
		Shell: func(ctx context.Context, d int, _ time.Time) (core.ShellOutcome, error) {
			if d == 1 {
				return core.ShellOutcome{Covered: 256, Hashed: 256}, nil
			}
			<-ctx.Done()
			return core.ShellOutcome{Covered: b.partial, Hashed: b.partial}, ctx.Err()
		},
	})
}

func (b *stragglerBackend) SearchAlternate(ctx context.Context, task core.Task) (core.Result, error) {
	return b.alt.Search(ctx, task)
}

// TestHandOffCoversEachShellOnce is the hand-off's acceptance test: a
// flight cancelled at the hedge trigger mid-way through shell 2 hands
// the rest of an exhaustive d=3 ball to the alternate engine starting at
// shell 2, so the folded Result covers u(3) seeds with each shell once,
// and only the stalled shell's partial work is hashed twice.
func TestHandOffCoversEachShellOnce(t *testing.T) {
	b := &stragglerBackend{alt: &cpu.Backend{Alg: core.SHA3, Workers: 2}, partial: 100}
	s := New(b, Config{Workers: 1, QueueDepth: 4,
		Hedge: HedgeConfig{Enabled: true, Delay: time.Millisecond}})
	defer s.Close()

	base := u256.New(7, 8, 9, 10)
	res, err := s.Search(context.Background(), core.Task{
		Base:        base,
		Target:      core.HashSeed(core.SHA3, base.Not()), // outside the ball
		MaxDistance: 3,
		Method:      iterseq.GrayCode,
		Exhaustive:  true,
	})
	if err != nil || res.Found {
		t.Fatalf("hand-off search = %+v, %v", res, err)
	}
	const u3 = 1 + 256 + 32640 + 2763520
	if res.SeedsCovered != u3 {
		t.Errorf("SeedsCovered = %d, want u(3) = %d", res.SeedsCovered, u3)
	}
	var ds []int
	for _, st := range res.Shells {
		ds = append(ds, st.Distance)
	}
	if fmt.Sprint(ds) != "[1 2 3]" {
		t.Errorf("shells %v, want [1 2 3]", ds)
	}
	if res.HashesExecuted != res.SeedsCovered+b.partial {
		t.Errorf("HashesExecuted = %d, want SeedsCovered + %d", res.HashesExecuted, b.partial)
	}
	if st := s.Stats(); st.Hedged != 1 || st.Served() != 1 {
		t.Errorf("Hedged = %d, Served = %d, want 1/1", st.Hedged, st.Served())
	}
}

// TestHedgeNotTriggeredForFastSearch: a search that beats the hedge
// trigger runs exactly one flight.
func TestHedgeNotTriggeredForFastSearch(t *testing.T) {
	var calls atomic.Int32
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		calls.Add(1)
		return core.Result{Found: true}, nil
	})
	s := New(bk, Config{Workers: 1, QueueDepth: 4,
		Hedge: HedgeConfig{Enabled: true, Delay: time.Second}})
	defer s.Close()

	if _, err := s.Search(context.Background(), core.Task{}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("fast search ran %d flights, want 1", got)
	}
	if st := s.Stats(); st.Hedged != 0 {
		t.Errorf("fast search hedged: %+v", st)
	}
}

// TestDeadlineInfeasibleRefusedAtAdmission: a search whose deadline is
// already past is refused with ErrDeadlineInfeasible without queueing.
func TestDeadlineInfeasibleRefusedAtAdmission(t *testing.T) {
	ring := obs.NewRing(16)
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		return core.Result{Found: true}, nil
	})
	s := New(bk, Config{Workers: 1, QueueDepth: 4, Trace: ring})
	defer s.Close()

	_, err := s.Search(context.Background(), core.Task{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("expected ErrDeadlineInfeasible, got %v", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.DeadlineInfeasible != 1 {
		t.Errorf("Rejected/DeadlineInfeasible = %d/%d, want 1/1", st.Rejected, st.DeadlineInfeasible)
	}
	if st.Submitted != 0 {
		t.Errorf("infeasible search was admitted: %+v", st)
	}
	events := ring.Snapshot()
	if len(events) != 1 || events[0].Kind != obs.KindReject || events[0].Detail != "deadline-infeasible" {
		t.Errorf("trace events = %+v, want one deadline-infeasible reject", events)
	}
}

// TestDeadlineExpiredInQueueDiscarded: a search admitted with a
// feasible deadline that expires while queued is discarded at dequeue —
// the backend never sees it.
func TestDeadlineExpiredInQueueDiscarded(t *testing.T) {
	gate := &blockingBackend{
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	var served atomic.Int32
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		served.Add(1)
		return gate.Search(ctx, task)
	})
	s := New(bk, Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Search(context.Background(), core.Task{})
	}()
	<-gate.entered // worker busy

	wg.Add(1)
	queuedErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := s.Search(context.Background(), core.Task{Deadline: time.Now().Add(30 * time.Millisecond)})
		queuedErr <- err
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	time.Sleep(60 * time.Millisecond) // deadline passes in the queue
	close(gate.release)
	wg.Wait()

	if err := <-queuedErr; !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("expected ErrDeadlineInfeasible for queued expiry, got %v", err)
	}
	if got := served.Load(); got != 1 {
		t.Errorf("backend served %d searches, want 1 (expired job must not reach it)", got)
	}
	st := s.Stats()
	if st.Cancelled != 1 || st.DeadlineInfeasible != 1 {
		t.Errorf("Cancelled/DeadlineInfeasible = %d/%d, want 1/1", st.Cancelled, st.DeadlineInfeasible)
	}
}

// TestSubmitRejectsInvalidClass: an out-of-range class never reaches
// the queue.
func TestSubmitRejectsInvalidClass(t *testing.T) {
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		return core.Result{}, nil
	})
	s := New(bk, Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	_, err := s.Search(context.Background(), core.Task{Class: core.QoSClass(200)})
	if err == nil {
		t.Fatal("invalid class admitted")
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Errorf("invalid class counted as submitted: %+v", st)
	}
}

// TestPerClassMetricsPublished checks that a registry wired into the
// scheduler grows per-class and per-distance histograms.
func TestPerClassMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		return core.Result{Found: true}, nil
	})
	s := New(bk, Config{Workers: 1, QueueDepth: 4, Metrics: reg})
	defer s.Close()

	if _, err := s.Search(context.Background(), core.Task{MaxDistance: 3, Class: core.ClassBatch}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"sched.queue_wait_seconds.batch",
		"sched.service_seconds.batch",
		"sched.service_seconds.maxd3",
	} {
		h, ok := snap[name].(obs.HistogramSnapshot)
		if !ok || h.Count != 1 {
			t.Errorf("%s = %#v, want one observation", name, snap[name])
		}
	}
	if h, ok := snap["sched.queue_wait_seconds.interactive"].(obs.HistogramSnapshot); !ok || h.Count != 0 {
		t.Errorf("interactive histogram = %#v, want zero observations", snap["sched.queue_wait_seconds.interactive"])
	}
}

// TestSearchAllocBudget holds a scheduled search over an instant
// backend with a metrics registry to its allocations: the per-distance
// service histogram is resolved once at New, not looked up (with a
// formatted name) per search.
func TestSearchAllocBudget(t *testing.T) {
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		return core.Result{Found: true}, nil
	})
	s := New(bk, Config{Workers: 1, QueueDepth: 4, Metrics: obs.NewRegistry()})
	defer s.Close()
	task := core.Task{MaxDistance: 2, Class: core.ClassBatch}
	const budget = 3 // the job, its done channel and its queue slot
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.Search(context.Background(), task); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("%.1f allocations per scheduled search, budget %d", n, budget)
	}
}

// TestStatsByClassPartition: ByClass admission counters partition the
// totals.
func TestStatsByClassPartition(t *testing.T) {
	bk := backendFunc(func(ctx context.Context, task core.Task) (core.Result, error) {
		return core.Result{Found: true}, nil
	})
	s := New(bk, Config{Workers: 2, QueueDepth: 8})
	defer s.Close()

	for i := 0; i < 3; i++ {
		if _, err := s.Search(context.Background(), core.Task{Class: core.ClassInteractive}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Search(context.Background(), core.Task{Class: core.ClassBackground}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	var sub uint64
	for c := range st.ByClass {
		sub += st.ByClass[c].Submitted
	}
	if sub != st.Submitted || st.Submitted != 5 {
		t.Errorf("ByClass Submitted sums to %d, total %d, want 5", sub, st.Submitted)
	}
	if st.ByClass[core.ClassInteractive].Submitted != 3 || st.ByClass[core.ClassBackground].Submitted != 2 {
		t.Errorf("per-class split = %+v", st.ByClass)
	}
	_ = fmt.Sprintf("%v", st) // Stats must remain printable for /metrics
}
