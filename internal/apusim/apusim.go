// Package apusim implements SALTED-APU (paper §3.3) as a simulated GSI
// Gemini associative processing unit: 4 cores x 16 banks x 2048 16-bit
// processors, with software-defined processing elements (2 bit processors
// per PE for SHA-1, 5 for SHA-3, giving the paper's 65k and 26k PEs),
// batch-of-256 seed permutation with early-exit checks between batches,
// and an in-memory-compute energy profile.
//
// The execution engine is real: shells within budget are hashed through
// the bit-sliced gate-level SHA-1/Keccak implementations in
// internal/bitslice - the software transpose of the APU's bit-serial
// associative compute - 64 seeds per batch, early exit only at batch
// boundaries, exactly as the hardware checks its flag. Gate counts from
// the executed batches drive the cycle model's compute term; the paper's
// Table 5 APU rows pin the absolute cycles-per-gate scale (two constants,
// one per hash, because SHA-3's working set spills beyond per-PE state
// memory).
package apusim

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rbcsalted/internal/bitslice"
	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
	"rbcsalted/internal/u256"
)

// BatchSeeds is the number of seed permutations a PE generates per loaded
// startup combination; the early-exit flag is checked after each batch
// (paper §3.3).
const BatchSeeds = 256

// DefaultExecBudget fully executes shells up to 64Ki seeds through the
// bit-sliced engine; larger shells run a sampled validation and are
// planned analytically.
const DefaultExecBudget = 1 << 16

// Config assembles a SALTED-APU backend.
type Config struct {
	// Alg is the search hash.
	Alg core.HashAlg
	// Devices is the number of APUs in the node. The paper evaluates one
	// and proposes up to 8 per 2U node as future work (§5); values above
	// one exercise that extension. 0 means 1.
	Devices int
	// ExecBudget is the largest shell fully executed bit-sliced; 0 means
	// DefaultExecBudget.
	ExecBudget uint64
	// HostWorkers sets goroutines for real execution; 0 means GOMAXPROCS.
	HostWorkers int
}

// Multi-APU coordination constants (§5 extension). The APU checks its
// exit flag at 256-seed batch boundaries in associative memory, so
// cross-device coordination costs only host-side shell dispatch plus one
// batch of drain - lighter than the GPU's unified-memory traffic, which
// is why the paper expects better single-node scaling.
const (
	perDeviceShellSyncSeconds = 1.5e-3
	exitDrainSeconds          = 10e-3
)

// Backend is the simulated SALTED-APU engine.
type Backend struct {
	cfg Config
	// pes is the software-defined processing element count for the hash.
	pes int
	// cyclesPerSeed is the calibrated per-PE cost of one seed
	// (permutation + hash + compare) in APU clock cycles.
	cyclesPerSeed float64
	// gatesPerSeed is measured from the bit-sliced engine; it justifies
	// and decomposes cyclesPerSeed (see CyclesPerGate).
	gatesPerSeed float64
}

// NewBackend builds a calibrated backend.
func NewBackend(cfg Config) *Backend {
	if cfg.Devices == 0 {
		cfg.Devices = 1
	}
	if cfg.ExecBudget == 0 {
		cfg.ExecBudget = DefaultExecBudget
	}
	b := &Backend{cfg: cfg}
	bpsPerPE := device.APUBPsPerPESHA3
	anchor := device.AnchorAPUSHA3Seconds
	if cfg.Alg == core.SHA1 {
		bpsPerPE = device.APUBPsPerPESHA1
		anchor = device.AnchorAPUSHA1Seconds
	}
	b.pes = device.APUCores * device.APUBanksPerCore * (device.APUBPsPerBank / bpsPerPE)
	// Measure the real gate counts of one bit-sliced batch.
	var e bitslice.Engine
	var seeds [bitslice.Width][32]byte
	if cfg.Alg == core.SHA1 {
		e.SHA1Seeds(&seeds)
	} else {
		e.SHA3Seeds256(&seeds)
	}
	b.gatesPerSeed = float64(e.Counts().Total()) / bitslice.Width
	// Absolute scale: throughput anchor from Table 5.
	throughput := device.ExhaustiveSeedsD5 / anchor
	b.cyclesPerSeed = float64(b.pes) * device.GeminiAPU.ClockHz / throughput
	return b
}

// Name implements core.Backend.
func (b *Backend) Name() string {
	return fmt.Sprintf("SALTED-APU(%s, %dx%d PEs)", b.cfg.Alg, b.cfg.Devices, b.pes)
}

// PEs returns the software-defined processing element count.
func (b *Backend) PEs() int { return b.pes }

// GatesPerSeed returns the measured boolean-gate count per hashed seed.
func (b *Backend) GatesPerSeed() float64 { return b.gatesPerSeed }

// CyclesPerGate decomposes the calibrated per-seed cost against the
// measured gate count: cycles each bit processor spends per boolean gate,
// including associative-memory access. SHA-3's larger value reflects
// working-set spill beyond per-PE state memory.
func (b *Backend) CyclesPerGate() float64 {
	bpsPerPE := device.APUBPsPerPESHA3
	if b.cfg.Alg == core.SHA1 {
		bpsPerPE = device.APUBPsPerPESHA1
	}
	return b.cyclesPerSeed * float64(bpsPerPE) / b.gatesPerSeed
}

func (b *Backend) powerModel() (device.PowerModel, float64) {
	if b.cfg.Alg == core.SHA1 {
		return device.PowerAPUSHA1, device.PeakAPUSHA1
	}
	return device.PowerAPUSHA3, device.PeakAPUSHA3
}

// PredictCost implements core.CostModel: the expected device time and
// energy of the task under the calibrated cycle model, without touching
// the oracle. PEs progress in lockstep over equal shares, so an
// early-exit search prices the final shell at half each PE's share (the
// uniform-match expectation); every other shell is priced in full.
func (b *Backend) PredictCost(task core.Task) (core.Cost, error) {
	seconds := 0.0
	cycles, err := core.PriceBall(task, b.totalPEs(), b.cyclesPerSeed, func(_ int, _, expect uint64) float64 {
		seconds += b.syncSeconds()
		return float64(expect) * b.cyclesPerSeed
	})
	if err != nil {
		return core.Cost{}, err
	}
	if !task.Exhaustive && b.cfg.Devices > 1 {
		seconds += exitDrainSeconds
	}
	seconds += cycles / device.GeminiAPU.ClockHz
	power, _ := b.powerModel()
	return core.Cost{
		Seconds: seconds,
		Joules:  power.Energy(seconds) * float64(b.cfg.Devices),
	}, nil
}

// totalPEs is the processing-element count across all devices in the
// node; they progress in lockstep over equal shares of a shell.
func (b *Backend) totalPEs() uint64 { return uint64(b.pes) * uint64(b.cfg.Devices) }

// syncSeconds is the host-side shell dispatch per device (multi-APU
// only, §5 extension).
func (b *Backend) syncSeconds() float64 {
	if b.cfg.Devices > 1 {
		return perDeviceShellSyncSeconds * float64(b.cfg.Devices)
	}
	return 0
}

// Search implements core.Backend. Cancellation is polled at batch
// boundaries in the bit-sliced execution paths — the same places the
// hardware checks its early-exit flag — and between shells in the
// analytic planner.
func (b *Backend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	var clock device.VirtualClock
	res, err := core.SearchBall(ctx, task, core.Engine{
		Name: b.Name(),
		Probe: func(base u256.Uint256) bool {
			clock.AdvanceCycles(b.cyclesPerSeed, device.GeminiAPU.ClockHz)
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
		return core.ShellOutcome{}, fmt.Errorf("apusim: C(256,%d) overflows uint64", d)
	}
	// Real execution is the host shell executor over the bit-sliced
	// matcher, polled at the batch boundaries where the hardware checks
	// its flag.
	out, err := core.SearchShellSim(ctx, task, b.cfg.Alg, d, size, b.cfg.ExecBudget,
		b.cfg.HostWorkers, BatchSeeds, func() core.Matcher {
			return &sliceMatcher{alg: b.cfg.Alg, target: task.Target, want: task.Target.Bytes()}
		})
	if err != nil {
		return out, err
	}

	// Charge modelled time. PEs (across all devices in the node) progress
	// in lockstep over equal shares; early exit happens at the end of the
	// finding PE's current 256-seed batch. Multi-APU runs pay host-side
	// shell dispatch per device and one drain on early exit (§5
	// extension).
	totalPEs := b.totalPEs()
	perPE := (size + totalPEs - 1) / totalPEs
	out.Covered = size
	if out.Found && !task.Exhaustive {
		rank, err := core.MatchRank(task.Method, task.Base, out.Seed)
		if err != nil {
			return core.ShellOutcome{Hashed: out.Hashed}, err
		}
		share := max(size/totalPEs, 1) // share before remainder distribution
		// Round up to the batch boundary where the flag is checked.
		batches := (rank%share + BatchSeeds) / BatchSeeds
		steps := min(batches*BatchSeeds, perPE)
		clock.AdvanceCycles(float64(steps)*b.cyclesPerSeed, device.GeminiAPU.ClockHz)
		clock.AdvanceSeconds(b.syncSeconds())
		if b.cfg.Devices > 1 {
			clock.AdvanceSeconds(exitDrainSeconds)
		}
		out.Covered = min(steps*totalPEs, size)
		return out, nil
	}
	clock.AdvanceCycles(float64(perPE)*b.cyclesPerSeed, device.GeminiAPU.ClockHz)
	clock.AdvanceSeconds(b.syncSeconds())
	return out, nil
}

// sliceMatcher is the APU's execution engine as a core.BatchMatcher:
// bitslice.Width candidates per call through the bit-sliced gate-level
// hash — the software transpose of the APU's bit-serial associative
// compute.
type sliceMatcher struct {
	alg    core.HashAlg
	target core.Digest
	want   []byte
	engine bitslice.Engine
	batch  [bitslice.Width][32]byte
}

// Match implements core.Matcher for callers that strip the batch form.
func (m *sliceMatcher) Match(candidate u256.Uint256) bool {
	return core.HashSeed(m.alg, candidate).Equal(m.target)
}

// BatchWidth implements core.BatchMatcher.
func (m *sliceMatcher) BatchWidth() int { return bitslice.Width }

// MatchMasks implements core.BatchMatcher. Lanes past a partial batch's
// end hash whatever the previous batch left there; they are never read.
func (m *sliceMatcher) MatchMasks(base u256.Uint256, masks *[core.MatchWidth]u256.Uint256, n int) core.MatchMask {
	var hits core.MatchMask
	for off := 0; off < n; off += bitslice.Width {
		k := min(n-off, bitslice.Width)
		for i := 0; i < k; i++ {
			m.batch[i] = base.Xor(masks[off+i]).Bytes()
		}
		if m.alg == core.SHA1 {
			digests := m.engine.SHA1Seeds(&m.batch)
			for i := 0; i < k; i++ {
				if bytes.Equal(digests[i][:], m.want) {
					hits.SetBit(off + i)
				}
			}
		} else {
			digests := m.engine.SHA3Seeds256(&m.batch)
			for i := 0; i < k; i++ {
				if bytes.Equal(digests[i][:], m.want) {
					hits.SetBit(off + i)
				}
			}
		}
	}
	return hits
}
