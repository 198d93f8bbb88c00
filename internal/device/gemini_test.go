package device

import (
	"context"
	"math/rand/v2"
	"testing"

	"rbcsalted/internal/bitslice"
	"rbcsalted/internal/core"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/puf"
)

func TestPECounts(t *testing.T) {
	if got := geminiPEs(core.SHA1); got != 65536 {
		t.Errorf("SHA-1 PEs = %d, want 65536", got)
	}
	if got := geminiPEs(core.SHA3); got != 26176 {
		t.Errorf("SHA-3 PEs = %d, want 26176", got)
	}
	if got := NewGemini(Config{Alg: core.SHA3, Devices: 3}).d.lanes; got != 3*26176 {
		t.Errorf("3 Geminis run %d lockstep PEs, want %d", got, 3*26176)
	}
}

// TestGateModelDiagnostics decomposes the anchored per-seed cycles
// against the gate count of one executed bit-sliced batch: cycles each
// bit processor spends per boolean gate, associative-memory access
// included. The count is a diagnostic only; it does not enter the cost
// model.
func TestGateModelDiagnostics(t *testing.T) {
	cyclesPerGate := map[core.HashAlg]float64{}
	for _, alg := range core.HashAlgs() {
		var e bitslice.Engine
		var seeds [bitslice.Width][32]byte
		bpsPerPE := APUBPsPerPESHA3
		if alg == core.SHA1 {
			e.SHA1Seeds(&seeds)
			bpsPerPE = APUBPsPerPESHA1
		} else {
			e.SHA3Seeds256(&seeds)
		}
		gates := float64(e.Counts().Total()) / bitslice.Width
		if gates <= 0 {
			t.Fatalf("%s: no gates measured", alg)
		}
		cpg := geminiCyclesPerSeed(alg) * float64(bpsPerPE) / gates
		if cpg <= 0 {
			t.Errorf("%s: cycles per gate %f", alg, cpg)
		}
		cyclesPerGate[alg] = cpg
		t.Logf("%s: %.0f gates/seed, %.1f cycles/gate, %d PEs", alg, gates, cpg, geminiPEs(alg))
	}
	// SHA-3's spill penalty: more cycles per gate than SHA-1.
	if s1, s3 := cyclesPerGate[core.SHA1], cyclesPerGate[core.SHA3]; s3 <= s1 {
		t.Errorf("SHA-3 cycles/gate (%.1f) should exceed SHA-1's (%.1f)", s3, s1)
	}
}

func TestSearchFindsSeedBitslicedExecution(t *testing.T) {
	// d <= 2 runs for real through the bit-sliced gate engine.
	r := rand.New(rand.NewPCG(1, 1))
	for _, alg := range core.HashAlgs() {
		base := randSeed(r)
		client := puf.InjectNoise(base, base, 2, r)
		e := NewGemini(Config{Alg: alg})
		task := taskFor(alg, base, client, 2, iterseq.GrayCode)
		task.Oracle = nil // real execution must not need the oracle
		res, err := e.Search(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || !res.Seed.Equal(client) || res.Distance != 2 {
			t.Errorf("%s: %+v", alg, res)
		}
		if res.HashesExecuted < 256 {
			t.Errorf("%s: expected bit-sliced execution, hashed %d", alg, res.HashesExecuted)
		}
	}
}

// TestAPUEnergyAdvantageSHA1 pins the paper's headline: for SHA-1 the APU
// uses ~39% of the GPU's joules; for SHA-3 they are roughly equivalent.
func TestAPUEnergyAdvantageSHA1(t *testing.T) {
	apuSHA1 := PowerAPUSHA1.Energy(AnchorAPUSHA1Seconds)
	gpuSHA1 := PowerGPUSHA1.Energy(1.56)
	ratio := apuSHA1 / gpuSHA1
	if ratio < 0.35 || ratio > 0.45 {
		t.Errorf("APU/GPU SHA-1 energy ratio %.2f, paper ~0.39", ratio)
	}
	apuSHA3 := PowerAPUSHA3.Energy(AnchorAPUSHA3Seconds)
	gpuSHA3 := PowerGPUSHA3.Energy(4.67)
	r3 := apuSHA3 / gpuSHA3
	if r3 < 0.9 || r3 > 1.15 {
		t.Errorf("APU/GPU SHA-3 energy ratio %.2f, paper ~1.03", r3)
	}
}

func TestEarlyExitBatchBoundary(t *testing.T) {
	// Early exit must cover whole 256-seed batches per PE.
	r := rand.New(rand.NewPCG(5, 5))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 5, r)
	e := NewGemini(Config{Alg: core.SHA1})
	res, err := e.Search(context.Background(), taskFor(core.SHA1, base, client, 5, iterseq.GrayCode))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("match lost")
	}
	lanes, size := e.d.lanes, uint64(8809549056)
	if last := res.Shells[len(res.Shells)-1].SeedsCovered; last != size && last%(BatchSeeds*lanes) != 0 {
		t.Errorf("final shell covered %d seeds: not whole %d-seed batches on %d PEs", last, BatchSeeds, lanes)
	}
	exh := taskFor(core.SHA1, base, client, 5, iterseq.GrayCode)
	exh.Exhaustive = true
	eres, err := e.Search(context.Background(), exh)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.DeviceSeconds < eres.DeviceSeconds) {
		t.Errorf("early exit %.2fs not faster than exhaustive %.2fs",
			res.DeviceSeconds, eres.DeviceSeconds)
	}
	// The exit rule itself: a match anywhere in a PE's first batch costs
	// one batch; one seed into the second costs two; no PE runs past its
	// share.
	perPE := (size + lanes - 1) / lanes
	for _, c := range []struct{ rank, steps uint64 }{
		{0, BatchSeeds},
		{BatchSeeds - 1, BatchSeeds},
		{BatchSeeds, 2 * BatchSeeds},
		{size/lanes - 1, perPE},
	} {
		if steps, covered := e.d.exit(core.Task{}, size, c.rank); steps != c.steps || covered != min(steps*lanes, size) {
			t.Errorf("rank %d: %d steps, %d covered; want %d steps", c.rank, steps, covered, c.steps)
		}
	}
}

// TestMultiAPUScaling exercises the §5 future-work extension: up to 8
// APUs in one node, with scaling expected to beat the GPU's (lighter
// cross-device coordination).
func TestMultiAPUScaling(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 8))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 5, r)
	run := func(devices int, exhaustive bool) float64 {
		e := NewGemini(Config{Alg: core.SHA3, Devices: devices})
		task := taskFor(core.SHA3, base, client, 5, iterseq.GrayCode)
		task.Exhaustive = exhaustive
		res, err := e.Search(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatal("match lost")
		}
		return res.DeviceSeconds
	}
	t1 := run(1, true)
	prev := t1
	for g := 2; g <= 8; g *= 2 {
		tg := run(g, true)
		if tg >= prev {
			t.Errorf("no speedup from %d devices: %.2fs >= %.2fs", g, tg, prev)
		}
		prev = tg
	}
	t8 := run(8, true)
	speedup := t1 / t8
	if speedup < 6.5 || speedup > 8 {
		t.Errorf("8-APU exhaustive speedup %.2f; expected near-linear", speedup)
	}
	t.Logf("multi-APU SHA-3 exhaustive: 1=%.2fs 8=%.2fs (%.2fx)", t1, t8, speedup)

	// Scaling at 3 devices should beat the GPU's 2.87x (the paper's
	// motivation for the 2U form factor).
	t3 := run(3, true)
	if s3 := t1 / t3; s3 <= 2.87 {
		t.Errorf("3-APU speedup %.2f not better than 3-GPU 2.87", s3)
	}
	// Energy scales with device count times (shorter) time.
	e8 := NewGemini(Config{Alg: core.SHA3, Devices: 8})
	task := taskFor(core.SHA3, base, client, 5, iterseq.GrayCode)
	task.Exhaustive = true
	res8, err := e8.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if res8.EnergyJoules < 900 || res8.EnergyJoules > 1200 {
		t.Errorf("8-APU energy %.0f J; expected near the single-APU total", res8.EnergyJoules)
	}
}
