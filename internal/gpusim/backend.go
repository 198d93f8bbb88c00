package gpusim

import (
	"context"
	"fmt"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
	"rbcsalted/internal/u256"
)

// Config assembles a SALTED-GPU backend.
type Config struct {
	// Alg is the search hash.
	Alg core.HashAlg
	// Devices is the number of A100s (1-3 in the paper); 0 means 1.
	Devices int
	// Params is the (n, b) kernel configuration; zero value means the
	// paper's best (n=100, b=128).
	Params KernelParams
	// SharedMemoryState keeps sequential-iterator state in shared memory
	// (paper §3.2.3). NewBackend enables it; clear it to measure the
	// ablation.
	SharedMemoryState bool
	// CheckInterval is seeds hashed between exit-flag polls (paper §4.4).
	// Zero means core.DefaultCheckInterval; the §4.4 sweep shows the
	// interval has no measurable model impact.
	CheckInterval int
	// ExecBudget is the largest shell (in seeds) the simulator fully
	// executes on the host instead of planning analytically; 0 means
	// DefaultExecBudget.
	ExecBudget uint64
	// HostWorkers sets goroutines for real execution; 0 means GOMAXPROCS.
	HostWorkers int
}

// DefaultExecBudget fully executes shells up to 64Ki seeds (d <= 2);
// larger shells run a validation sample and are planned analytically.
// Raise it (e.g. to 4<<20 for d <= 3) when wall-clock time permits.
const DefaultExecBudget = 1 << 16

// Backend is the simulated SALTED-GPU engine.
type Backend struct {
	cfg   Config
	model *Model
}

// NewBackend builds a backend with the paper's default configuration
// applied to unset fields.
func NewBackend(cfg Config) *Backend {
	if cfg.Devices == 0 {
		cfg.Devices = 1
	}
	if cfg.Params.SeedsPerThread == 0 {
		cfg.Params.SeedsPerThread = DefaultParams.SeedsPerThread
	}
	if cfg.Params.ThreadsPerBlock == 0 {
		cfg.Params.ThreadsPerBlock = DefaultParams.ThreadsPerBlock
	}
	if cfg.ExecBudget == 0 {
		cfg.ExecBudget = DefaultExecBudget
	}
	if cfg.CheckInterval == 0 {
		cfg.CheckInterval = core.DefaultCheckInterval
	}
	return &Backend{cfg: cfg, model: NewModel()}
}

// Name implements core.Backend.
func (b *Backend) Name() string {
	return fmt.Sprintf("SALTED-GPU(%s, %dxA100, n=%d, b=%d)",
		b.cfg.Alg, b.cfg.Devices, b.cfg.Params.SeedsPerThread, b.cfg.Params.ThreadsPerBlock)
}

// powerModel returns the calibrated power draw for the configured hash.
func (b *Backend) powerModel() (device.PowerModel, float64) {
	if b.cfg.Alg == core.SHA1 {
		return device.PowerGPUSHA1, device.PeakGPUSHA1
	}
	return device.PowerGPUSHA3, device.PeakGPUSHA3
}

// PredictCost implements core.CostModel: the expected device time and
// energy of the task priced by the same calibrated kernel model that
// charges real searches, without touching the oracle. An early-exit
// search is priced at half the final shell (the uniform-match
// expectation); every other shell is priced in full.
func (b *Backend) PredictCost(task core.Task) (core.Cost, error) {
	if task.CheckInterval == 0 {
		task.CheckInterval = b.cfg.CheckInterval
	}
	g := uint64(b.cfg.Devices)
	seconds, err := core.PriceBall(task, 1, b.model.kernelLaunchSeconds, func(_ int, size, expect uint64) float64 {
		full := b.model.shellSeconds((size+g-1)/g, b.cfg.Alg, task.Method, b.cfg.Params,
			b.cfg.SharedMemoryState, task.CheckInterval)
		return full*float64(expect)/float64(size) + b.syncSeconds()
	})
	if err != nil {
		return core.Cost{}, err
	}
	if !task.Exhaustive && b.cfg.Devices > 1 {
		seconds += b.model.exitPropagationSeconds
	}
	power, _ := b.powerModel()
	return core.Cost{
		Seconds: seconds,
		Joules:  power.Energy(seconds) * float64(b.cfg.Devices),
	}, nil
}

// syncSeconds is the host-side serialization per shell of launching one
// kernel per device (multi-GPU only).
func (b *Backend) syncSeconds() float64 {
	if b.cfg.Devices > 1 {
		return b.model.perDeviceKernelSyncSeconds * float64(b.cfg.Devices)
	}
	return 0
}

// Search implements core.Backend. Within-budget shells run real host
// execution and poll ctx every CheckInterval seeds; analytically planned
// shells check ctx at shell boundaries (the modelled kernel launches).
func (b *Backend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	if task.CheckInterval == 0 {
		task.CheckInterval = b.cfg.CheckInterval
	}
	var clock device.VirtualClock
	res, err := core.SearchBall(ctx, task, core.Engine{
		Name: b.Name(),
		// Distance 0: a single-seed host check; device cost is one kernel.
		Probe: func(base u256.Uint256) bool {
			clock.AdvanceSeconds(b.model.kernelLaunchSeconds)
			return core.HashSeed(b.cfg.Alg, base).Equal(task.Target)
		},
		Shell: func(ctx context.Context, d int, _ time.Time) (core.ShellOutcome, error) {
			return b.searchShell(ctx, task, d, &clock)
		},
		Clock: clock.Seconds,
	})
	power, peak := b.powerModel()
	res.EnergyJoules = power.Energy(res.DeviceSeconds) * float64(b.cfg.Devices)
	res.PeakWatts = peak * float64(b.cfg.Devices)
	return res, err
}

// searchShell covers one Hamming shell and charges it to the clock.
func (b *Backend) searchShell(ctx context.Context, task core.Task, d int, clock *device.VirtualClock) (core.ShellOutcome, error) {
	size, ok := combin.Binomial64(256, d)
	if !ok {
		return core.ShellOutcome{}, fmt.Errorf("gpusim: C(256,%d) overflows uint64", d)
	}
	// Real execution: within budget the kernel's actual Go code covers
	// the shell on the host; paper-scale shells are planned analytically.
	out, err := core.SearchShellSim(ctx, task, b.cfg.Alg, d, size, b.cfg.ExecBudget,
		b.cfg.HostWorkers, task.CheckInterval, core.HashMatcherFactory(b.cfg.Alg, task.Target))
	if err != nil {
		return out, err
	}

	// Charge modelled time by the match's analytic position (GPU blocks
	// stream in rank order), not by the host goroutines' incidental
	// progress. Each device takes an equal contiguous slice of the shell,
	// so an early exit at global fraction f costs ~f of the full
	// per-device kernel plus the exit drain.
	g := uint64(b.cfg.Devices)
	full := b.model.shellSeconds((size+g-1)/g, b.cfg.Alg, task.Method, b.cfg.Params,
		b.cfg.SharedMemoryState, task.CheckInterval)
	out.Covered = size
	if out.Found && !task.Exhaustive {
		rank, err := core.MatchRank(task.Method, task.Base, out.Seed)
		if err != nil {
			return core.ShellOutcome{Hashed: out.Hashed}, err
		}
		out.Covered = rank + 1
		frac := float64(out.Covered) / float64(size)
		clock.AdvanceSeconds(full*frac + b.syncSeconds())
		if b.cfg.Devices > 1 {
			clock.AdvanceSeconds(b.model.exitPropagationSeconds)
		}
		return out, nil
	}
	clock.AdvanceSeconds(full + b.syncSeconds())
	return out, nil
}
