package device

import (
	"bytes"
	"fmt"

	"rbcsalted/internal/bitslice"
	"rbcsalted/internal/core"
	"rbcsalted/internal/u256"
)

// SALTED-APU (paper §3.3) on a modelled GSI Gemini associative processing
// unit: 4 cores x 16 banks x 2048 16-bit processors, with
// software-defined processing elements (2 bit processors per PE for
// SHA-1, 5 for SHA-3, giving the paper's 65k and 26k PEs), batch-of-256
// seed permutation with early-exit checks between batches, and an
// in-memory-compute energy profile.
//
// The kernel is real: shells within budget are hashed through the
// bit-sliced gate-level SHA-1/Keccak implementations in internal/bitslice
// — the software transpose of the APU's bit-serial associative compute —
// 64 seeds per batch. The cycles each PE spends per seed come from the
// paper's Table 5 APU rows alone (one anchor per hash, because SHA-3's
// working set spills beyond per-PE state memory); the executed gate
// counts do not enter the cost model.

// BatchSeeds is the number of seed permutations a PE generates per loaded
// startup combination; the early-exit flag is checked after each batch
// (paper §3.3).
const BatchSeeds = 256

// Multi-APU coordination (§5 extension). The APU checks its exit flag at
// 256-seed batch boundaries in associative memory, so cross-device
// coordination costs only host-side shell dispatch plus one batch of
// drain — lighter than the GPU's unified-memory traffic, which is why the
// paper expects better single-node scaling.
const (
	perDeviceShellSyncSeconds = 1.5e-3
	apuExitDrainSeconds       = 10e-3
)

// geminiPEs returns the software-defined processing elements one Gemini
// runs for alg.
func geminiPEs(alg core.HashAlg) int {
	bpsPerPE := APUBPsPerPESHA3
	if alg == core.SHA1 {
		bpsPerPE = APUBPsPerPESHA1
	}
	return APUCores * APUBanksPerCore * (APUBPsPerBank / bpsPerPE)
}

// geminiCyclesPerSeed returns the calibrated per-PE cost of one seed
// (permutation + hash + compare) in APU clock cycles: Table 5's
// exhaustive d=5 throughput spread over the PEs.
func geminiCyclesPerSeed(alg core.HashAlg) float64 {
	anchor := AnchorAPUSHA3Seconds
	if alg == core.SHA1 {
		anchor = AnchorAPUSHA1Seconds
	}
	throughput := ExhaustiveSeedsD5 / anchor
	return float64(geminiPEs(alg)) * GeminiAPU.ClockHz / throughput
}

// NewGemini builds SALTED-APU on cfg.Devices Gemini APUs. The paper
// evaluates one and proposes up to 8 per 2U node as future work (§5);
// more than one exercises that extension. PEs across all devices progress
// in lockstep over equal shares of a shell; an early exit happens at the
// end of the finding PE's current 256-seed batch.
func NewGemini(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	pes := geminiPEs(cfg.Alg)
	cycles := geminiCyclesPerSeed(cfg.Alg)
	lanes := uint64(pes) * uint64(cfg.Devices)
	power, peak := PowerAPUSHA3, PeakAPUSHA3
	if cfg.Alg == core.SHA1 {
		power, peak = PowerAPUSHA1, PeakAPUSHA1
	}
	var sync, drain float64
	if cfg.Devices > 1 {
		sync = perDeviceShellSyncSeconds * float64(cfg.Devices)
		drain = apuExitDrainSeconds
	}
	return &Engine{d: Description{
		Config:    cfg,
		name:      fmt.Sprintf("SALTED-APU(%s, %dx%d PEs)", cfg.Alg, cfg.Devices, pes),
		power:     power,
		peakWatts: peak,
		lanes:     lanes,
		seconds: func(_ core.Task, _, steps uint64) float64 {
			return float64(steps) * cycles / GeminiAPU.ClockHz
		},
		syncSeconds:  sync,
		drainSeconds: drain,
		exit: func(_ core.Task, size, rank uint64) (uint64, uint64) {
			share := max(size/lanes, 1) // share before remainder distribution
			// Round up to the batch boundary where the flag is checked.
			batches := (rank%share + BatchSeeds) / BatchSeeds
			steps := min(batches*BatchSeeds, (size+lanes-1)/lanes)
			return steps, min(steps*lanes, size)
		},
		kernel: func(target core.Digest) core.MatcherFactory {
			return func() core.Matcher {
				return &sliceMatcher{alg: cfg.Alg, target: target, want: target.Bytes()}
			}
		},
	}}
}

// sliceMatcher is the APU's kernel as a core.BatchMatcher:
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
