package plan

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/u256"
)

// The planner must satisfy every contract it brokers.
var (
	_ core.Backend           = (*Planner)(nil)
	_ core.CostModel         = (*Planner)(nil)
	_ core.ETAEstimator      = (*Planner)(nil)
	_ core.AlternateSearcher = (*Planner)(nil)
)

// paperEngines is the calibrated Table 5/6 trio: the modelled 64-core
// EPYC, A100 and Gemini APU.
func paperEngines(alg core.HashAlg) []core.Backend {
	costs := device.MeasureHostCosts()
	return []core.Backend{
		device.NewEPYC(alg, costs),
		device.NewA100(device.Config{Alg: alg}, costs),
		device.NewGemini(device.Config{Alg: alg}),
	}
}

// planTask builds a plan-only task (never dispatched, so the target
// digest's preimage does not matter).
func planTask(alg core.HashAlg, d int, exhaustive bool, limit time.Duration) core.Task {
	return core.Task{
		Base:        u256.New(1, 2, 3, 4),
		Target:      core.HashSeed(alg, u256.New(5, 6, 7, 8)),
		MaxDistance: d,
		Exhaustive:  exhaustive,
		TimeLimit:   limit,
	}
}

// TestPlanNeverPicksDominatedEngine is the static-choice property test:
// across the whole (alg, d, policy, mode, deadline) grid, the engine the
// planner picks is never strictly dominated — strictly slower AND
// strictly more joules — by another engine in the same preference tier.
// Feedback is disabled so the test exercises the calibrated curves
// alone.
func TestPlanNeverPicksDominatedEngine(t *testing.T) {
	limits := []time.Duration{0, 20 * time.Second, time.Second, 10 * time.Millisecond}
	for _, alg := range core.HashAlgs() {
		for _, policy := range []Policy{PolicyBalanced, PolicyLatency, PolicyEnergy} {
			p, err := New(Config{
				Engines:       paperEngines(alg),
				Policy:        policy,
				FeedbackAlpha: -1, // static curves only
			})
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d <= 6; d++ {
				for _, exhaustive := range []bool{false, true} {
					for _, limit := range limits {
						task := planTask(alg, d, exhaustive, limit)
						dec, err := p.Plan(task)
						if err != nil {
							t.Fatalf("%v %v d=%d: %v", alg, policy, d, err)
						}
						chosen := dec.Choices[dec.Primary]
						for _, other := range dec.Choices {
							if tier(other) != tier(chosen) {
								continue
							}
							if other.Cost.Seconds < chosen.Cost.Seconds &&
								other.Cost.Joules < chosen.Cost.Joules {
								t.Errorf("%v %v d=%d exhaustive=%v limit=%v: chose %s (%.4fs, %.2fJ) but %s (%.4fs, %.2fJ) strictly dominates",
									alg, policy, d, exhaustive, limit,
									chosen.Engine, chosen.Cost.Seconds, chosen.Cost.Joules,
									other.Engine, other.Cost.Seconds, other.Cost.Joules)
							}
						}
					}
				}
			}
		}
	}
}

// fakeEngine is a constant-cost instant backend for planner unit tests.
type fakeEngine struct {
	name   string
	sec    float64
	joules float64
	calls  int32
	mu     sync.Mutex
}

func (f *fakeEngine) Name() string { return f.name }

func (f *fakeEngine) Search(ctx context.Context, task core.Task) (core.Result, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return core.Result{Found: true, SeedsCovered: 1,
		DeviceSeconds: f.sec, EnergyJoules: f.joules}, nil
}

func (f *fakeEngine) PredictCost(task core.Task) (core.Cost, error) {
	return core.Cost{Seconds: f.sec, Joules: f.joules}, nil
}

// TestJoulesBudgetDemotesButStillServes: under PolicyLatency the fast
// engine wins — until its predicted joules exceed the remaining budget,
// at which point it is demoted below the affordable slow engine. The
// fleet keeps serving either way.
func TestJoulesBudgetDemotesButStillServes(t *testing.T) {
	fast := &fakeEngine{name: "fast", sec: 0.001, joules: 5}
	slow := &fakeEngine{name: "slow", sec: 0.010, joules: 0.5}
	task := planTask(core.SHA3, 2, false, 0)

	unbudgeted, err := New(Config{Engines: []core.Backend{fast, slow}, Policy: PolicyLatency})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := unbudgeted.Plan(task)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Choices[dec.Primary].Engine; got != "fast" {
		t.Fatalf("unbudgeted latency policy chose %s, want fast", got)
	}

	budgeted, err := New(Config{Engines: []core.Backend{fast, slow},
		Policy: PolicyLatency, JoulesBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err = budgeted.Plan(task)
	if err != nil {
		t.Fatal(err)
	}
	chosen := dec.Choices[dec.Primary]
	if chosen.Engine != "slow" {
		t.Fatalf("budgeted planner chose %s, want the affordable slow engine", chosen.Engine)
	}
	if chosen.OverBudget {
		t.Fatal("the affordable engine is marked over budget")
	}
	if res, err := budgeted.Search(context.Background(), task); err != nil || !res.Found {
		t.Fatalf("budgeted search: %+v, %v", res, err)
	}
}

// TestFeedbackCorrectsLyingCurve: an engine that predicts 1ms but
// delivers 100ms loses its lead to an honest rival once the EWMA has
// seen enough searches.
func TestFeedbackCorrectsLyingCurve(t *testing.T) {
	// The liar's static curve claims 1ms; its Search reports the true
	// 100ms DeviceSeconds back through the feedback loop.
	liar := &lyingEngine{
		fakeEngine: &fakeEngine{name: "liar", sec: 0.100, joules: 1},
		claimSec:   0.001,
	}
	honest := &fakeEngine{name: "honest", sec: 0.005, joules: 1.1}
	task := planTask(core.SHA1, 1, false, 0)
	p, err := New(Config{Engines: []core.Backend{liar, honest}, Policy: PolicyLatency})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.Plan(task)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Choices[dec.Primary].Engine; got != "liar" {
		t.Fatalf("static plan chose %s, want the (lying) liar", got)
	}
	for i := 0; i < 40; i++ {
		if _, err := p.Search(context.Background(), task); err != nil {
			t.Fatal(err)
		}
	}
	dec, err = p.Plan(task)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Choices[dec.Primary].Engine; got != "honest" {
		t.Fatalf("after feedback the planner still chose %s, want honest", got)
	}
}

// lyingEngine reports claimSec from PredictCost but serves (and
// observes) the embedded fake's real cost.
type lyingEngine struct {
	*fakeEngine
	claimSec float64
}

func (l *lyingEngine) PredictCost(task core.Task) (core.Cost, error) {
	return core.Cost{Seconds: l.claimSec, Joules: l.joules}, nil
}

// TestPlannersNest: a planner is itself a CostModel, so a planner of
// planners constructs and serves.
func TestPlannersNest(t *testing.T) {
	inner, err := New(Config{Engines: []core.Backend{
		&fakeEngine{name: "a", sec: 0.001, joules: 1},
		&fakeEngine{name: "b", sec: 0.002, joules: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := New(Config{Engines: []core.Backend{
		inner,
		&fakeEngine{name: "c", sec: 0.010, joules: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := outer.Search(context.Background(), planTask(core.SHA3, 1, false, 0))
	if err != nil || !res.Found {
		t.Fatalf("nested search: %+v, %v", res, err)
	}
}

// TestConcurrentPlanSearchFeedback hammers every concurrent surface at
// once — Search, SearchAlternate, Plan, EstimateETA, Stats — and is the
// test the -race CI target leans on.
func TestConcurrentPlanSearchFeedback(t *testing.T) {
	engines := []core.Backend{
		&fakeEngine{name: "e0", sec: 0.0001, joules: 0.2},
		&fakeEngine{name: "e1", sec: 0.0002, joules: 0.1},
		&fakeEngine{name: "e2", sec: 0.0004, joules: 0.05},
	}
	p, err := New(Config{
		Engines:      engines,
		JoulesBudget: 50,
		Metrics:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				task := planTask(core.HashAlgs()[i%2], 1+(g+i)%5, i%7 == 0, 0)
				switch i % 4 {
				case 0:
					if _, err := p.Search(context.Background(), task); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := p.SearchAlternate(context.Background(), task); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := p.Plan(task); err != nil {
						t.Error(err)
						return
					}
					p.EstimateETA(task)
				case 3:
					p.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	st := p.Stats()
	var dispatched uint64
	for _, e := range st.Engines {
		dispatched += e.Dispatches + e.Alternates
	}
	if dispatched == 0 {
		t.Fatal("no searches dispatched")
	}
	if st.JoulesSpent <= 0 {
		t.Fatalf("joules ledger empty after %d dispatches", dispatched)
	}
}

// TestParsePolicy pins the flag values the command-line tools accept.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"balanced", PolicyBalanced}, {"latency", PolicyLatency}, {"energy", PolicyEnergy}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("cheapest"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestNewRejectsEnginesWithoutCostModel pins the constructor contract.
func TestNewRejectsEnginesWithoutCostModel(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty engine list accepted")
	}
	if _, err := New(Config{Engines: []core.Backend{noCost{}}}); err == nil {
		t.Fatal("engine without a cost model accepted")
	}
}

type noCost struct{}

func (noCost) Name() string { return "nocost" }
func (noCost) Search(context.Context, core.Task) (core.Result, error) {
	return core.Result{}, fmt.Errorf("unreachable")
}
