package device

import (
	"fmt"
	"math"

	"rbcsalted/internal/core"
	"rbcsalted/internal/iterseq"
)

// SALTED-GPU (paper §3.2) on a modelled NVIDIA A100: a SIMT execution
// model with kernel-per-Hamming-distance launches, an (n seeds per
// thread) x (b threads per block) tuning surface, a unified-memory
// early-exit flag, Chase-class iterator state in shared memory, and 1-3
// device scaling.
//
// Calibration (DESIGN.md §5): per-hash absolute scale comes from the
// paper's exhaustive d=5 anchors (4.67 s SHA-3, 1.56 s SHA-1); the
// translation of host-measured per-seed iterator costs into device cycles
// is pinned by Table 4's Algorithm 515 row, after which the Gosper row,
// the (n, b) surface, the shared-memory ablation, the early-exit
// behaviour and all multi-GPU curves are model outputs.

// A100 structural parameters (architecture-public numbers).
const (
	numSMs          = 108
	maxThreadsPerSM = 2048
	maxBlocksPerSM  = 32
	// latencyHidingFactor is the resident-threads-per-core multiple the
	// model wants before memory latency is hidden; it is also the stall
	// multiplier a lone thread pays.
	latencyHidingFactor = 8
)

// Multi-GPU coordination, calibrated to Figure 4: the exhaustive SHA-3
// speedup of 2.87x on 3 GPUs implies ~4.6 ms of host serialization per
// device-kernel; the extra gap to the 2.66x early-exit speedup implies
// ~30 ms of exit drain across devices.
const (
	perDeviceKernelSyncSeconds = 4.6e-3
	gpuExitPropagationSeconds  = 30e-3
)

// NewA100 builds SALTED-GPU on cfg.Devices A100s at the paper's best
// kernel configuration (DefaultKernelParams, iterator state in shared
// memory), priced from the host cost table costs. The device streams
// each shell in rank order over contiguous per-device slices, so an
// early exit at rank r charges (r+1)/size of the full kernel.
func NewA100(cfg Config, costs HostCosts) *Engine {
	cfg = cfg.withDefaults()
	k := NewA100Kernel(costs)
	g := uint64(cfg.Devices)
	power, peak := PowerGPUSHA3, PeakGPUSHA3
	if cfg.Alg == core.SHA1 {
		power, peak = PowerGPUSHA1, PeakGPUSHA1
	}
	var sync, drain float64
	if g > 1 {
		sync = perDeviceKernelSyncSeconds * float64(g)
		drain = gpuExitPropagationSeconds
	}
	return &Engine{d: Description{
		Config: cfg,
		name: fmt.Sprintf("SALTED-GPU(%s, %dxA100, n=%d, b=%d)", cfg.Alg, cfg.Devices,
			DefaultKernelParams.SeedsPerThread, DefaultKernelParams.ThreadsPerBlock),
		power:     power,
		peakWatts: peak,
		lanes:     1,
		seconds: func(task core.Task, size, steps uint64) float64 {
			full := k.ShellSeconds((size+g-1)/g, cfg.Alg, task.Method, DefaultKernelParams,
				true, task.EffectiveCheckInterval())
			return full * float64(steps) / float64(size)
		},
		// Distance 0 is a single-seed host check: the device pays a launch.
		probeSeconds: func(core.Task) float64 { return k.launchSeconds },
		syncSeconds:  sync,
		drainSeconds: drain,
		exit: func(_ core.Task, _, rank uint64) (uint64, uint64) {
			return rank + 1, rank + 1
		},
		kernel: func(target core.Digest) core.MatcherFactory {
			return core.HashMatcherFactory(cfg.Alg, target)
		},
	}}
}

// KernelParams is one (n, b) kernel configuration point.
type KernelParams struct {
	SeedsPerThread  int // n
	ThreadsPerBlock int // b
}

// DefaultKernelParams is the paper's best configuration (Figure 3).
var DefaultKernelParams = KernelParams{SeedsPerThread: 100, ThreadsPerBlock: 128}

// A100Kernel is the A100 kernel cost model behind NewA100, exposed for
// the parameter sweeps (Figure 3's heatmap, the §4.4 flag-interval sweep,
// the §3.2.3 shared-memory ablation). Construct with NewA100Kernel.
type A100Kernel struct {
	costs HostCosts

	// cyclesSHA1 and cyclesSHA3 are the calibrated effective core-cycles
	// to iterate (minimal-change) and hash one seed, per hash algorithm.
	cyclesSHA1 float64
	cyclesSHA3 float64

	// iterCyclesPerNs converts host-measured per-seed iterator overhead
	// (relative to the minimal-change iterator) into device cycles;
	// calibrated from Table 4's Algorithm 515 row.
	iterCyclesPerNs float64

	// threadSetupCycles is the one-time per-thread cost: seeking the seed
	// iterator to the thread's start rank plus state install.
	threadSetupCycles float64

	// launchSeconds is the host-side cost of one kernel launch.
	launchSeconds float64

	// globalStateExtraCycles is the per-seed penalty for keeping
	// sequential-iterator state in global instead of shared memory
	// (paper §3.2.3).
	globalStateExtraCycles float64

	// exitCheckCycles is the per-poll cost of reading the cached
	// unified-memory exit flag (paper §4.4 finds it negligible).
	exitCheckCycles float64
}

// NewA100Kernel calibrates the A100 kernel model on a host cost table.
// The model consumes only ratios of these costs, so a caller that wants
// reproducible pricing (tests, offline what-if analysis) can pin a
// representative table: the live measurement legitimately shifts with
// the execution environment — a loaded host, or the race detector's
// instrumentation, can compress or even invert the gap between two
// iterators' host costs.
func NewA100Kernel(costs HostCosts) *A100Kernel {
	m := &A100Kernel{costs: costs, launchSeconds: 5e-6, exitCheckCycles: 2}

	// First-order scale from raw throughput, then renormalized so the
	// full exhaustive d=5 search at the default (n, b) reproduces each
	// anchor exactly (launch, setup and tail terms are percent-level).
	m.cyclesSHA3 = float64(A100.Lanes) * A100.ClockHz * AnchorGPUSHA3Seconds / ExhaustiveSeedsD5
	m.cyclesSHA1 = float64(A100.Lanes) * A100.ClockHz * AnchorGPUSHA1Seconds / ExhaustiveSeedsD5
	m.threadSetupCycles = 2 * m.cyclesSHA3 // seek ~ two seeds' worth of work
	for i := 0; i < 3; i++ {
		m.cyclesSHA3 *= AnchorGPUSHA3Seconds /
			m.ExhaustiveD5SecondsAt(core.SHA3, iterseq.GrayCode, DefaultKernelParams, true, 1)
		m.cyclesSHA1 *= AnchorGPUSHA1Seconds /
			m.ExhaustiveD5SecondsAt(core.SHA1, iterseq.GrayCode, DefaultKernelParams, true, 1)
	}

	// Iterator-cost translation from Table 4's Algorithm 515 row: the
	// extra device cycles per seed, divided by the extra host nanoseconds
	// per seed.
	extraSeconds := AnchorGPUAlg515Seconds - AnchorGPUSHA3Seconds
	extraCycles := extraSeconds * float64(A100.Lanes) * A100.ClockHz / ExhaustiveSeedsD5
	extraNs := costs.IterNs[iterseq.Alg515] - costs.IterNs[iterseq.GrayCode]
	if extraNs <= 0 {
		extraNs = 1 // degenerate host measurement; keep the model finite
	}
	m.iterCyclesPerNs = extraCycles / extraNs

	// §3.2.3: global-memory iterator state slows SHA-1 by 1.20x; the
	// same absolute per-seed latency applies to every hash.
	m.globalStateExtraCycles = 0.20 * m.cyclesSHA1
	return m
}

// cyclesPerSeed returns iterate+hash cycles for one candidate.
func (m *A100Kernel) cyclesPerSeed(alg core.HashAlg, method iterseq.Method) float64 {
	base := m.cyclesSHA3
	if alg == core.SHA1 {
		base = m.cyclesSHA1
	}
	extraNs := m.costs.IterNs[method] - m.costs.IterNs[iterseq.GrayCode]
	if extraNs < 0 {
		extraNs = 0
	}
	return base + m.iterCyclesPerNs*extraNs
}

// schedEfficiency models block-scheduling losses as a function of block
// size: very large blocks drain raggedly at kernel end, very small blocks
// pay per-block dispatch. The curve peaks near the paper's b=128.
func schedEfficiency(threadsPerBlock int) float64 {
	b := float64(threadsPerBlock)
	return 1.0 / (1.0 + 0.10*(b/maxThreadsPerSM) + 0.02*(64.0/b))
}

// ShellSeconds prices one kernel over `seeds` candidates on one device.
//
// The model: threads = ceil(seeds/n) are resident up to the per-SM block
// and thread caps; each resident thread retires one seed-cycle per
// latencyHidingFactor clocks, capped at one per core per clock. The
// kernel additionally pays a launch, per-thread setup, a wave-quantized
// tail when oversubscribed, and a drain of one thread's serial runtime at
// the end.
func (m *A100Kernel) ShellSeconds(seeds uint64, alg core.HashAlg, method iterseq.Method, p KernelParams, sharedState bool, checkInterval int) float64 {
	if seeds == 0 {
		return m.launchSeconds
	}
	n := uint64(p.SeedsPerThread)
	b := p.ThreadsPerBlock
	threads := (seeds + n - 1) / n

	perSeed := m.cyclesPerSeed(alg, method)
	if !sharedState && sequential(method) {
		perSeed += m.globalStateExtraCycles
	}
	if checkInterval < 1 {
		checkInterval = 1
	}
	perSeed += m.exitCheckCycles / float64(checkInterval)

	blocksPerSM := math.Min(maxBlocksPerSM, math.Floor(maxThreadsPerSM/float64(b)))
	if blocksPerSM < 1 {
		blocksPerSM = 1
	}
	capacity := numSMs * blocksPerSM * float64(b)
	resident := math.Min(float64(threads), capacity)
	// Seed-cycles retired per second.
	rate := math.Min(float64(A100.Lanes), resident/latencyHidingFactor) *
		A100.ClockHz * schedEfficiency(b)

	totalCycles := float64(seeds)*perSeed + float64(threads)*m.threadSetupCycles

	// Wave-quantization tail for oversubscribed kernels.
	tail := 1.0
	blocks := math.Ceil(float64(threads) / float64(b))
	blocksPerWave := float64(numSMs) * blocksPerSM
	if blocks > blocksPerWave {
		waves := math.Ceil(blocks / blocksPerWave)
		tail = waves * blocksPerWave / blocks
	}

	// End-of-kernel drain: the last thread's serial runtime.
	perThread := math.Min(float64(n), float64(seeds))
	drain := perThread * perSeed * latencyHidingFactor / A100.ClockHz

	return m.launchSeconds + totalCycles*tail/rate + drain
}

// sequential reports whether the method carries per-thread state that the
// shared-memory optimization (paper §3.2.3) applies to.
func sequential(method iterseq.Method) bool {
	return method == iterseq.GrayCode || method == iterseq.Gosper || method == iterseq.Mifsud154
}

// ExhaustiveD5SecondsAt prices the full exhaustive d=0..5 anchor scenario
// on one device at an arbitrary kernel configuration.
func (m *A100Kernel) ExhaustiveD5SecondsAt(alg core.HashAlg, method iterseq.Method, p KernelParams, sharedState bool, checkInterval int) float64 {
	total := m.launchSeconds // d=0 check
	for _, s := range []uint64{256, 32640, 2763520, 174792640, 8809549056} {
		total += m.ShellSeconds(s, alg, method, p, sharedState, checkInterval)
	}
	return total
}
