package device

import (
	"context"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/u256"
)

// The paper runs one Algorithm 1 on three platforms that differ only in
// constants: Table 3's clocks and lanes, Table 5's anchors and Table 6's
// watts. A Description holds those constants for one platform; Engine
// runs Algorithm 1 over any Description, pricing and charging every shell
// through the Description's one seconds function, so a prediction and a
// modelled search of the same exhaustive task report the same time and
// energy by construction. NewA100, NewGemini and NewEPYC are the paper's
// three platforms.

// DefaultExecBudget fully executes shells up to 64Ki seeds (d <= 2) on
// the host; larger shells run a validation sample and are planned
// analytically. Raise it (e.g. to 4<<20 for d <= 3) when wall-clock time
// permits.
const DefaultExecBudget = 1 << 16

// Config is what a caller sets on a modelled accelerator node.
type Config struct {
	// Alg is the search hash.
	Alg core.HashAlg
	// Devices is the number of devices in the node; 0 means 1.
	Devices int
	// ExecBudget is the largest shell, in seeds, that the device's kernel
	// executes for real on the host instead of planning it analytically;
	// 0 means DefaultExecBudget.
	ExecBudget uint64
	// HostWorkers sets goroutines for real execution; 0 means GOMAXPROCS.
	HostWorkers int
}

func (c Config) withDefaults() Config {
	if c.Devices == 0 {
		c.Devices = 1
	}
	if c.ExecBudget == 0 {
		c.ExecBudget = DefaultExecBudget
	}
	return c
}

// Description is one modelled platform: everything that differs between
// the A100, the Gemini APU and the 64-core EPYC.
type Description struct {
	Config
	// name is the engine's name.
	name string
	// power is one device's draw during a search and peakWatts its
	// maximum; a node's energy and peak scale with Devices.
	power     PowerModel
	peakWatts float64
	// lanes is the number of lockstep lanes across the node. Each takes
	// an equal share of a shell, so covering a shell in full costs
	// ceil(size/lanes) steps.
	lanes uint64
	// seconds is the device time of `steps` lockstep steps over a shell
	// of `size` seeds. It is the one charge: PredictCost prices expected
	// steps with it and Search charges the steps taken.
	seconds func(task core.Task, size, steps uint64) float64
	// probeSeconds is the device time of the distance-0 probe; nil means
	// one step of a one-seed shell.
	probeSeconds func(task core.Task) float64
	// syncSeconds is the host-side coordination every shell pays;
	// drainSeconds is what an early exit adds to stop every device.
	syncSeconds, drainSeconds float64
	// exit maps the rank, in the task's order, of a match that ends an
	// early-exit search to the steps charged and the seeds covered across
	// all lanes.
	exit func(task core.Task, size, rank uint64) (steps, covered uint64)
	// kernel builds the matcher the device's kernel runs on the host for
	// a target: shells within ExecBudget are covered with it for real,
	// larger ones by a validation sample beside the oracle. Nil models a
	// platform without an executed kernel: the oracle is located and
	// verified by one hash.
	kernel func(target core.Digest) core.MatcherFactory
}

// Engine runs Algorithm 1 on a modelled platform: a core.Backend and a
// core.CostModel over one Description.
type Engine struct {
	d Description
}

// Name implements core.Backend.
func (e *Engine) Name() string { return e.d.name }

// charge is the device time of steps lockstep steps over a shell of size
// seeds, per-shell sync included.
func (e *Engine) charge(task core.Task, size, steps uint64) float64 {
	return e.d.seconds(task, size, steps) + e.d.syncSeconds
}

func (e *Engine) probeSeconds(task core.Task) float64 {
	if e.d.probeSeconds != nil {
		return e.d.probeSeconds(task)
	}
	return e.d.seconds(task, 1, 1)
}

func (e *Engine) joules(seconds float64) float64 {
	return e.d.power.Energy(seconds) * float64(e.d.Devices)
}

// PredictCost implements core.CostModel: the task priced by the charge
// that Search uses, without touching the oracle. An early-exit search
// prices the final shell at half each lane's share (the uniform-match
// expectation) plus the exit drain; every other shell is priced in full.
func (e *Engine) PredictCost(task core.Task) (core.Cost, error) {
	seconds, err := core.PriceBall(task, e.d.lanes, e.probeSeconds(task), func(_ int, size, expect uint64) float64 {
		return e.charge(task, size, expect)
	})
	if err != nil {
		return core.Cost{}, err
	}
	if !task.Exhaustive {
		seconds += e.d.drainSeconds
	}
	return core.Cost{Seconds: seconds, Joules: e.joules(seconds)}, nil
}

// Search implements core.Backend. Shells the kernel executes poll ctx
// every task.CheckInterval seeds; planned shells check it at shell
// boundaries (the modelled kernel launches).
func (e *Engine) Search(ctx context.Context, task core.Task) (core.Result, error) {
	var clock VirtualClock
	res, err := core.SearchBall(ctx, task, core.Engine{
		Name: e.d.name,
		Probe: func(base u256.Uint256) bool {
			clock.AdvanceSeconds(e.probeSeconds(task))
			return core.HashSeed(e.d.Alg, base).Equal(task.Target)
		},
		Shell: func(ctx context.Context, d int, _ time.Time) (core.ShellOutcome, error) {
			return e.shell(ctx, task, d, &clock)
		},
		Clock: clock.Seconds,
	})
	res.EnergyJoules = e.joules(res.DeviceSeconds)
	res.PeakWatts = e.d.peakWatts * float64(e.d.Devices)
	return res, err
}

// shell covers the Hamming shell at distance d and charges it to clock:
// in full, or by the exit rule when an early-exit search matches in it.
func (e *Engine) shell(ctx context.Context, task core.Task, d int, clock *VirtualClock) (core.ShellOutcome, error) {
	size, _ := combin.Binomial64(256, d) // SearchBall bounds d
	var out core.ShellOutcome
	var err error
	if e.d.kernel == nil {
		out = core.VerifyOracle(task, e.d.Alg, d)
	} else {
		out, err = core.SearchShellSim(ctx, task, e.d.Alg, d, size, e.d.ExecBudget,
			e.d.HostWorkers, task.EffectiveCheckInterval(), e.d.kernel(task.Target))
		if err != nil {
			return out, err
		}
	}
	steps, exit := (size+e.d.lanes-1)/e.d.lanes, out.Found && !task.Exhaustive
	out.Covered = size
	if exit {
		rank, err := core.MatchRank(task.Method, task.Base, out.Seed)
		if err != nil {
			return core.ShellOutcome{Hashed: out.Hashed}, err
		}
		steps, out.Covered = e.d.exit(task, size, rank)
	}
	clock.AdvanceSeconds(e.charge(task, size, steps))
	if exit {
		clock.AdvanceSeconds(e.d.drainSeconds)
	}
	return out, nil
}
