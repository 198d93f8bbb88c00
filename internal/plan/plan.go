// Package plan is the cost-based backend planner: a core.Backend-shaped
// multiplexer that answers the paper's core question — *which
// accelerator, when* — as a live dispatch decision instead of a static
// bench table.
//
// Every engine handed to the planner implements core.CostModel, so the
// planner holds one calibrated (time, energy) curve per engine — the
// same curves behind Table 5 (throughput) and Table 6 (energy), seeded
// from device.MeasureHostCosts, the device.Engine timing models and the
// committed kernel calibration. For each task it predicts every
// engine's cost from the task's shell sizes (Hamming distance d),
// algorithm and iterator, corrects the prediction by live feedback
// (per-engine, per-(alg, d) EWMAs of observed/predicted ratios), scales
// time by the engine's current in-flight load, and picks by policy:
// the cheapest joules among engines whose load-adjusted ETA fits the
// task's deadline/TimeLimit budget (PolicyBalanced), the fastest
// (PolicyLatency), or the thriftiest (PolicyEnergy). A configurable
// joules budget steers dispatch away from engines whose predicted
// draw exceeds what remains.
//
// The planner also implements core.ETAEstimator (so the scheduler's
// deadline admission judges feasibility against the *chosen* engine)
// and core.AlternateSearcher (so the scheduler's hand-off continues a
// straggling search past the shells it finished on the *second-best*
// engine rather than re-rolling the first). See DESIGN.md §13.
package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/obs"
)

// Policy selects the planner's objective.
type Policy int

const (
	// PolicyBalanced minimizes predicted joules among engines whose
	// load-adjusted ETA fits the task's time budget, falling back to the
	// fastest engine when none fits. This reproduces the paper's §4.5
	// reading: the accelerator that wins is the cheapest one that still
	// answers inside the authentication threshold.
	PolicyBalanced Policy = iota
	// PolicyLatency minimizes the load-adjusted ETA unconditionally.
	PolicyLatency
	// PolicyEnergy minimizes predicted joules among time-feasible
	// engines and keeps minimizing joules even when nothing is feasible
	// (an energy-capped deployment prefers a late answer to a costly
	// one).
	PolicyEnergy
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyBalanced:
		return "balanced"
	case PolicyLatency:
		return "latency"
	case PolicyEnergy:
		return "energy"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a -plan-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "balanced":
		return PolicyBalanced, nil
	case "latency":
		return PolicyLatency, nil
	case "energy":
		return PolicyEnergy, nil
	default:
		return 0, fmt.Errorf("plan: unknown policy %q (try: balanced, latency, energy)", s)
	}
}

// DefaultFeedbackAlpha is the EWMA smoothing factor applied to
// observed/predicted cost ratios when Config leaves FeedbackAlpha zero.
const DefaultFeedbackAlpha = 0.2

// Config assembles a Planner.
type Config struct {
	// Engines are the candidate backends, each of which must implement
	// core.CostModel. Order is the tie-break: earlier engines win ties.
	Engines []core.Backend
	// Policy selects the objective; zero is PolicyBalanced.
	Policy Policy
	// JoulesBudget, when positive, is the total energy the planner may
	// spend across all searches. Engines whose predicted joules exceed
	// the remaining budget are avoided while any affordable engine
	// remains; the budget steers dispatch rather than refusing service.
	JoulesBudget float64
	// FeedbackAlpha is the EWMA smoothing factor for live correction of
	// the static curves; zero means DefaultFeedbackAlpha, negative
	// disables feedback entirely (pure static planning).
	FeedbackAlpha float64
	// Metrics, when non-nil, receives planner counters and a "planner"
	// stats callback.
	Metrics *obs.Registry
}

// feedback cells are keyed by (algorithm, min(MaxDistance, feedbackMaxD)):
// the correction an engine needs is a function of how deep the search
// runs, and depths beyond the paper's d=5 behave like d=5.
const feedbackMaxD = 5

type engine struct {
	backend core.Backend
	cost    core.CostModel

	inFlight   atomic.Int64
	dispatches atomic.Uint64 // primary dispatches
	alternates atomic.Uint64 // hedge (second-best) dispatches
	joules     atomicFloat64 // observed joules attributed to this engine

	// secRatio and jouleRatio are EWMAs of observed/predicted, indexed
	// [algIndex][min(d, feedbackMaxD)].
	secRatio   [2][feedbackMaxD + 1]obs.EWMA
	jouleRatio [2][feedbackMaxD + 1]obs.EWMA
}

func algIndex(a core.HashAlg) int {
	if a == core.SHA1 {
		return 0
	}
	return 1
}

func dIndex(maxD int) int {
	if maxD < 0 {
		return 0
	}
	if maxD > feedbackMaxD {
		return feedbackMaxD
	}
	return maxD
}

// Planner is the cost-based multiplexer. Construct with New; all
// methods are safe for concurrent use.
type Planner struct {
	cfg     Config
	alpha   float64
	engines []*engine
	name    string

	plans       atomic.Uint64
	joulesSpent atomicFloat64

	mPlans      *obs.Counter
	mInfeasible *obs.Counter
}

// New builds a Planner over the given engines. Every engine must
// implement core.CostModel — the planner has nothing to plan with
// otherwise.
func New(cfg Config) (*Planner, error) {
	if len(cfg.Engines) == 0 {
		return nil, errors.New("plan: no engines")
	}
	p := &Planner{cfg: cfg, alpha: cfg.FeedbackAlpha}
	if p.alpha == 0 {
		p.alpha = DefaultFeedbackAlpha
	}
	names := make([]string, 0, len(cfg.Engines))
	for _, b := range cfg.Engines {
		cm, ok := b.(core.CostModel)
		if !ok {
			return nil, fmt.Errorf("plan: engine %s does not implement core.CostModel", b.Name())
		}
		p.engines = append(p.engines, &engine{backend: b, cost: cm})
		names = append(names, b.Name())
	}
	p.name = fmt.Sprintf("planner[%s](%s)", cfg.Policy, strings.Join(names, " | "))
	if cfg.Metrics != nil {
		p.mPlans = cfg.Metrics.Counter("planner_plans")
		p.mInfeasible = cfg.Metrics.Counter("planner_no_feasible_engine")
		cfg.Metrics.Func("planner", func() any { return p.Stats() })
	}
	return p, nil
}

// Name implements core.Backend.
func (p *Planner) Name() string { return p.name }

// EngineChoice is one engine's standing in a Decision.
type EngineChoice struct {
	// Engine is the backend's name.
	Engine string
	// Cost is the feedback-corrected predicted cost of the task.
	Cost core.Cost
	// ETA is the load-adjusted expected completion time: corrected
	// seconds scaled by (1 + searches already in flight on the engine).
	ETA time.Duration
	// Feasible reports the ETA fits the task's time budget (always true
	// when the task carries no deadline and no TimeLimit).
	Feasible bool
	// OverBudget reports the predicted joules exceed the planner's
	// remaining energy budget.
	OverBudget bool
}

// Decision is one planning outcome: the ranked engines and the chosen
// primary/secondary. Choices is ordered best-first under the policy.
type Decision struct {
	Choices []EngineChoice
	// Primary and Secondary index Choices' underlying engines; Secondary
	// is -1 when only one engine exists.
	Primary   int
	Secondary int
}

// planned pairs a Decision with the engine handles backing it.
type planned struct {
	decision Decision
	ranked   []*engine // parallel to decision.Choices
}

// Plan ranks the engines for the task without dispatching. Exported for
// introspection and tests; Search/SearchAlternate plan internally.
func (p *Planner) Plan(task core.Task) (Decision, error) {
	pl, err := p.plan(task)
	return pl.decision, err
}

func (p *Planner) plan(task core.Task) (planned, error) {
	p.plans.Add(1)
	if p.mPlans != nil {
		p.mPlans.Inc()
	}

	budget := p.timeBudget(task)
	remaining := p.remainingJoules()
	ai, di := algIndex(taskAlg(task)), dIndex(task.MaxDistance)

	type cand struct {
		e      *engine
		choice EngineChoice
	}
	cands := make([]cand, 0, len(p.engines))
	var firstErr error
	for _, e := range p.engines {
		c, err := e.cost.PredictCost(task)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if p.alpha > 0 {
			if r, n := e.secRatio[ai][di].Value(); n > 0 {
				c.Seconds *= r
			}
			if r, n := e.jouleRatio[ai][di].Value(); n > 0 {
				c.Joules *= r
			}
		}
		load := 1 + float64(e.inFlight.Load())
		eta := time.Duration(c.Seconds * load * float64(time.Second))
		cands = append(cands, cand{
			e: e,
			choice: EngineChoice{
				Engine:     e.backend.Name(),
				Cost:       c,
				ETA:        eta,
				Feasible:   budget <= 0 || eta <= budget,
				OverBudget: remaining >= 0 && c.Joules > remaining,
			},
		})
	}
	if len(cands) == 0 {
		if firstErr == nil {
			firstErr = errors.New("plan: no engine produced a prediction")
		}
		return planned{}, firstErr
	}

	// Rank best-first. Sorting is by insertion (the engine list is tiny):
	// the comparison prefers the policy objective within the preference
	// tier, and order of Config.Engines breaks exact ties.
	better := func(a, b cand) bool {
		if ta, tb := tier(a.choice), tier(b.choice); ta != tb {
			return ta < tb
		}
		switch p.cfg.Policy {
		case PolicyLatency:
			return a.choice.ETA < b.choice.ETA
		default: // PolicyBalanced, PolicyEnergy
			if a.choice.Feasible && b.choice.Feasible {
				return a.choice.Cost.Joules < b.choice.Cost.Joules
			}
			if p.cfg.Policy == PolicyEnergy {
				return a.choice.Cost.Joules < b.choice.Cost.Joules
			}
			// Balanced fallback when nothing fits: finish soonest.
			return a.choice.ETA < b.choice.ETA
		}
	}
	ordered := make([]cand, 0, len(cands))
	for _, c := range cands {
		i := len(ordered)
		for i > 0 && better(c, ordered[i-1]) {
			i--
		}
		ordered = append(ordered, cand{})
		copy(ordered[i+1:], ordered[i:])
		ordered[i] = c
	}

	pl := planned{decision: Decision{Primary: 0, Secondary: -1}}
	if len(ordered) > 1 {
		pl.decision.Secondary = 1
	}
	if !ordered[0].choice.Feasible && p.mInfeasible != nil {
		p.mInfeasible.Inc()
	}
	for _, c := range ordered {
		pl.decision.Choices = append(pl.decision.Choices, c.choice)
		pl.ranked = append(pl.ranked, c.e)
	}
	return pl, nil
}

// tier groups candidates by preference: affordable-and-feasible first,
// then feasible-but-over-budget, then the rest. The budget demotes
// rather than excludes, so an over-budget fleet still serves.
func tier(c EngineChoice) int {
	switch {
	case c.Feasible && !c.OverBudget:
		return 0
	case c.Feasible:
		return 1
	default:
		return 2
	}
}

// timeBudget returns the tighter of the task's deadline slack and its
// TimeLimit; zero means unbounded.
func (p *Planner) timeBudget(task core.Task) time.Duration {
	budget := task.TimeLimit
	if !task.Deadline.IsZero() {
		slack := time.Until(task.Deadline)
		if slack <= 0 {
			slack = time.Nanosecond // already late: nothing is feasible
		}
		if budget == 0 || slack < budget {
			budget = slack
		}
	}
	return budget
}

// remainingJoules returns the unspent budget, or -1 when unbudgeted.
func (p *Planner) remainingJoules() float64 {
	if p.cfg.JoulesBudget <= 0 {
		return -1
	}
	r := p.cfg.JoulesBudget - p.joulesSpent.Load()
	if r < 0 {
		r = 0
	}
	return r
}

// taskAlg recovers the hash algorithm for feedback keying from the
// target digest's tag (the algorithm is otherwise engine state).
func taskAlg(task core.Task) core.HashAlg {
	return task.Target.Alg
}

// Search implements core.Backend: plan, dispatch the primary engine,
// fold the observation back into the curves.
func (p *Planner) Search(ctx context.Context, task core.Task) (core.Result, error) {
	return p.dispatch(ctx, task, false)
}

// SearchAlternate implements core.AlternateSearcher: dispatch the
// second-best engine (the best one, when only one exists). The
// scheduler's hand-off calls this so a straggling search continues, past
// the shells it finished, on different hardware.
func (p *Planner) SearchAlternate(ctx context.Context, task core.Task) (core.Result, error) {
	return p.dispatch(ctx, task, true)
}

func (p *Planner) dispatch(ctx context.Context, task core.Task, alternate bool) (core.Result, error) {
	pl, err := p.plan(task)
	if err != nil {
		return core.Result{}, err
	}
	idx := pl.decision.Primary
	if alternate && pl.decision.Secondary >= 0 {
		idx = pl.decision.Secondary
	}
	e := pl.ranked[idx]
	predicted := pl.decision.Choices[idx].Cost

	if alternate {
		e.alternates.Add(1)
	} else {
		e.dispatches.Add(1)
	}
	e.inFlight.Add(1)
	res, err := e.backend.Search(ctx, task)
	e.inFlight.Add(-1)
	p.observe(e, task, predicted, res, err)
	return res, err
}

// observe charges the energy ledger and, on clean completions, folds
// the observed/predicted ratios into the engine's correction EWMAs.
func (p *Planner) observe(e *engine, task core.Task, predicted core.Cost, res core.Result, err error) {
	joules := res.EnergyJoules
	if joules == 0 && predicted.Seconds > 0 && res.DeviceSeconds > 0 {
		// Engine reports no power model (e.g. the real host backend):
		// attribute energy by scaling the predicted joules with the
		// observed time so the ledger stays consistent with planning.
		joules = predicted.Joules * res.DeviceSeconds / predicted.Seconds
	}
	if joules > 0 {
		e.joules.Add(joules)
		p.joulesSpent.Add(joules)
	}
	if err != nil || p.alpha <= 0 {
		// A cancelled or failed search still spent energy, but its partial
		// cost says nothing about the curves.
		return
	}
	ai, di := algIndex(taskAlg(task)), dIndex(task.MaxDistance)
	if predicted.Seconds > 0 && res.DeviceSeconds > 0 {
		e.secRatio[ai][di].Observe(p.alpha, res.DeviceSeconds/predicted.Seconds)
	}
	if predicted.Joules > 0 && joules > 0 {
		e.jouleRatio[ai][di].Observe(p.alpha, joules/predicted.Joules)
	}
}

// PredictCost implements core.CostModel: the planner's own predicted
// cost for a task is its chosen engine's corrected prediction, so
// planners nest (a planner can dispatch over other planners).
func (p *Planner) PredictCost(task core.Task) (core.Cost, error) {
	pl, err := p.plan(task)
	if err != nil {
		return core.Cost{}, err
	}
	return pl.decision.Choices[pl.decision.Primary].Cost, nil
}

// EstimateETA implements core.ETAEstimator: the load-adjusted ETA of
// the engine the task would dispatch to. The scheduler's deadline
// admission consults this, so infeasibility is judged against the
// *chosen* engine rather than a backend-blind global average.
func (p *Planner) EstimateETA(task core.Task) (time.Duration, bool) {
	pl, err := p.plan(task)
	if err != nil {
		return 0, false
	}
	return pl.decision.Choices[pl.decision.Primary].ETA, true
}

// EngineStats is one engine's dispatch accounting.
type EngineStats struct {
	Name string
	// Dispatches counts primary dispatches; Alternates counts hedge
	// (second-best) dispatches.
	Dispatches uint64
	Alternates uint64
	// InFlight is the searches running on the engine right now.
	InFlight int64
	// Joules is the observed energy attributed to the engine.
	Joules float64
}

// Stats is a point-in-time snapshot of the planner.
type Stats struct {
	Policy string
	// Plans counts planning passes (Search, SearchAlternate,
	// EstimateETA and Plan all plan).
	Plans uint64
	// JoulesSpent is the observed energy across all engines;
	// JoulesBudget echoes the configured cap (0 = unbudgeted).
	JoulesSpent  float64
	JoulesBudget float64
	Engines      []EngineStats
}

// Stats returns a snapshot. Safe for concurrent use.
func (p *Planner) Stats() Stats {
	st := Stats{
		Policy:       p.cfg.Policy.String(),
		Plans:        p.plans.Load(),
		JoulesSpent:  p.joulesSpent.Load(),
		JoulesBudget: p.cfg.JoulesBudget,
	}
	for _, e := range p.engines {
		st.Engines = append(st.Engines, EngineStats{
			Name:       e.backend.Name(),
			Dispatches: e.dispatches.Load(),
			Alternates: e.alternates.Load(),
			InFlight:   e.inFlight.Load(),
			Joules:     e.joules.Load(),
		})
	}
	return st
}

// atomicFloat64 is a CAS-looped float64 accumulator.
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (a *atomicFloat64) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat64) Load() float64 {
	return math.Float64frombits(a.bits.Load())
}
