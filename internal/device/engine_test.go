package device

import (
	"context"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

func randSeed(r *rand.Rand) u256.Uint256 {
	return u256.New(r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
}

func taskFor(alg core.HashAlg, base, client u256.Uint256, maxD int, method iterseq.Method) core.Task {
	oracle := client
	return core.Task{
		Base:        base,
		Target:      core.HashSeed(alg, client),
		MaxDistance: maxD,
		Method:      method,
		Oracle:      &oracle,
	}
}

func rel(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// platforms builds the paper's three modelled platforms for alg at their
// default configuration.
func platforms(alg core.HashAlg) []*Engine {
	return []*Engine{a100(alg), gemini(alg), epyc(alg)}
}

// The contract tests below run the same check on each platform, one test
// per platform so a failure names the device.

func a100(alg core.HashAlg) *Engine   { return NewA100(Config{Alg: alg}, cpu.MeasureHostCosts()) }
func gemini(alg core.HashAlg) *Engine { return NewGemini(Config{Alg: alg}) }
func epyc(alg core.HashAlg) *Engine   { return NewEPYC(alg, cpu.MeasureHostCosts()) }

func TestA100SearchFindsSeedPlannedD5(t *testing.T)   { checkPlannedD5(t, a100(core.SHA3)) }
func TestGeminiSearchFindsSeedPlannedD5(t *testing.T) { checkPlannedD5(t, gemini(core.SHA3)) }
func TestEPYCSearchFindsSeedPlannedD5(t *testing.T)   { checkPlannedD5(t, epyc(core.SHA3)) }

func checkPlannedD5(t *testing.T, e *Engine) {
	t.Helper()
	// d=5 exceeds every exec budget: the oracle locates, hashing verifies.
	r := rand.New(rand.NewPCG(2, 2))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 5, r)
	res, err := e.Search(context.Background(), taskFor(core.SHA3, base, client, 5, iterseq.GrayCode))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.Seed.Equal(client) || res.Distance != 5 {
		t.Fatalf("%s: planned search failed: %+v", e.Name(), res)
	}
	if res.WallSeconds > 30 {
		t.Errorf("%s: planned d=5 search took %.1fs wall; planning is broken", e.Name(), res.WallSeconds)
	}
}

// The calibrated models must land near the paper's Table 5 rows.

func TestA100AnchorExhaustiveD5(t *testing.T) {
	checkAnchor(t, a100(core.SHA3), core.SHA3, 4.67, 0.05)
	checkAnchor(t, a100(core.SHA1), core.SHA1, 1.56, 0.05)
}

func TestGeminiAnchorExhaustiveD5(t *testing.T) {
	checkAnchor(t, gemini(core.SHA1), core.SHA1, 1.62, 0.05)
	checkAnchor(t, gemini(core.SHA3), core.SHA3, 13.95, 0.05)
}

func TestEPYCAnchorExhaustiveD5(t *testing.T) {
	checkAnchor(t, epyc(core.SHA1), core.SHA1, AnchorCPUSHA1Seconds, 0.02)
	checkAnchor(t, epyc(core.SHA3), core.SHA3, AnchorCPUSHA3Seconds, 0.02)
}

func checkAnchor(t *testing.T, e *Engine, alg core.HashAlg, want, tol float64) {
	t.Helper()
	r := rand.New(rand.NewPCG(3, 3))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 5, r)
	task := taskFor(alg, base, client, 5, iterseq.GrayCode)
	task.Exhaustive = true
	res, err := e.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Distance != 5 {
		t.Fatalf("%s: lost the match: %+v", e.Name(), res)
	}
	if rel(res.DeviceSeconds, want) > tol {
		t.Errorf("%s exhaustive d=5: modelled %.2fs, paper %.2fs", e.Name(), res.DeviceSeconds, want)
	}
	t.Logf("%s exhaustive d=5: modelled %.2fs (paper %.2fs), %.0f J", e.Name(), res.DeviceSeconds, want, res.EnergyJoules)
}

// Exhaustive d=5 energy and peak power must match the paper's Table 6.

func TestA100EnergyMatchesTable6(t *testing.T) {
	checkEnergy(t, a100(core.SHA1), core.SHA1, 317.20, 253.43)
	checkEnergy(t, a100(core.SHA3), core.SHA3, 946.55, 258.29)
}

func TestGeminiEnergyMatchesTable6(t *testing.T) {
	checkEnergy(t, gemini(core.SHA1), core.SHA1, 124.43, 83.81)
	checkEnergy(t, gemini(core.SHA3), core.SHA3, 974.06, 83.63)
}

func checkEnergy(t *testing.T, e *Engine, alg core.HashAlg, joules, peak float64) {
	t.Helper()
	r := rand.New(rand.NewPCG(4, 4))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 5, r)
	task := taskFor(alg, base, client, 5, iterseq.GrayCode)
	task.Exhaustive = true
	res, err := e.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if rel(res.EnergyJoules, joules) > 0.06 {
		t.Errorf("%s: %.1f J, paper %.1f J", e.Name(), res.EnergyJoules, joules)
	}
	if res.PeakWatts != peak {
		t.Errorf("%s: peak %.2f W, paper %.2f W", e.Name(), res.PeakWatts, peak)
	}
}

// ballD3 is the number of seeds within distance 3 of a 256-bit base.
const ballD3 = 1 + 256 + 32640 + 2763520

func TestA100NotFoundBeyondRadius(t *testing.T)   { checkNotFoundBeyondRadius(t, a100(core.SHA3)) }
func TestGeminiNotFoundBeyondRadius(t *testing.T) { checkNotFoundBeyondRadius(t, gemini(core.SHA3)) }
func TestEPYCNotFoundBeyondRadius(t *testing.T)   { checkNotFoundBeyondRadius(t, epyc(core.SHA3)) }

func checkNotFoundBeyondRadius(t *testing.T, e *Engine) {
	t.Helper()
	r := rand.New(rand.NewPCG(7, 7))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 4, r)
	// The oracle lies beyond the radius: nothing is found, every shell is
	// covered.
	res, err := e.Search(context.Background(), taskFor(core.SHA3, base, client, 3, iterseq.GrayCode))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("%s: found a match outside the radius", e.Name())
	}
	if res.SeedsCovered != ballD3 {
		t.Errorf("%s: covered %d seeds, the d<=3 ball holds %d", e.Name(), res.SeedsCovered, ballD3)
	}
}

// TestModelsRefuseUnexecutedShells: a genuine d=3 client searched with
// no oracle at the default ExecBudget. Shell 3 is larger than the budget,
// and the EPYC model executes no shell at all, so every platform must
// refuse the search rather than report coverage it never hashed.
func TestModelsRefuseUnexecutedShells(t *testing.T) {
	r := rand.New(rand.NewPCG(33, 33))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 3, r)
	task := taskFor(core.SHA3, base, client, 3, iterseq.GrayCode)
	task.Oracle = nil
	for _, e := range []*Engine{
		a100(core.SHA3),
		NewA100(Config{Alg: core.SHA3, Devices: 3}, cpu.MeasureHostCosts()),
		gemini(core.SHA3),
		NewGemini(Config{Alg: core.SHA3, Devices: 3}),
		epyc(core.SHA3),
	} {
		res, err := e.Search(context.Background(), task)
		if err == nil {
			t.Errorf("%s: no error; found=%v, covered %d seeds after hashing %d", e.Name(), res.Found, res.SeedsCovered, res.HashesExecuted)
		} else if !strings.Contains(err.Error(), e.Name()) {
			t.Errorf("%s: error %q does not name the engine", e.Name(), err)
		}
		if res.SeedsCovered > res.HashesExecuted {
			t.Errorf("%s: covered %d seeds, hashed %d", e.Name(), res.SeedsCovered, res.HashesExecuted)
		}
	}
}

func TestA100OracleIsVerifiedNotTrusted(t *testing.T)   { checkOracleVerified(t, a100(core.SHA3)) }
func TestGeminiOracleIsVerifiedNotTrusted(t *testing.T) { checkOracleVerified(t, gemini(core.SHA3)) }
func TestEPYCOracleIsVerifiedNotTrusted(t *testing.T)   { checkOracleVerified(t, epyc(core.SHA3)) }

func checkOracleVerified(t *testing.T, e *Engine) {
	t.Helper()
	r := rand.New(rand.NewPCG(8, 8))
	base := randSeed(r)
	liar := puf.InjectNoise(base, base, 5, r)
	task := core.Task{
		Base:        base,
		Target:      core.HashSeed(core.SHA3, randSeed(r)),
		MaxDistance: 5,
		Method:      iterseq.GrayCode,
		Oracle:      &liar,
	}
	res, err := e.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("%s trusted a lying oracle", e.Name())
	}
}

func TestA100DefaultsAndName(t *testing.T) {
	checkDefaultsAndName(t, a100(core.SHA3), "SALTED-GPU(SHA-3, 1xA100, n=100, b=128)")
	checkDefaultsAndName(t, NewA100(Config{Alg: core.SHA1, Devices: 3}, cpu.MeasureHostCosts()), "SALTED-GPU(SHA-1, 3xA100, n=100, b=128)")
}

func TestGeminiDefaultsAndName(t *testing.T) {
	checkDefaultsAndName(t, gemini(core.SHA1), "SALTED-APU(SHA-1, 1x65536 PEs)")
	checkDefaultsAndName(t, NewGemini(Config{Alg: core.SHA3, Devices: 8}), "SALTED-APU(SHA-3, 8x26176 PEs)")
}

func TestEPYCDefaultsAndName(t *testing.T) {
	checkDefaultsAndName(t, epyc(core.SHA3), "SALTED-CPU-model(SHA-3, p=64, 2xAMD EPYC 7542)")
}

func checkDefaultsAndName(t *testing.T, e *Engine, name string) {
	t.Helper()
	if got := e.Name(); got != name {
		t.Errorf("Name() = %q, want %q", got, name)
	}
	if e.d.Devices < 1 || e.d.ExecBudget != DefaultExecBudget {
		t.Errorf("%s: defaults not applied: %+v", name, e.d.Config)
	}
	for _, d := range []int{-1, 11, 99} {
		if _, err := e.Search(context.Background(), core.Task{MaxDistance: d}); err == nil {
			t.Errorf("%s: no error for MaxDistance %d", name, d)
		}
		if _, err := e.PredictCost(core.Task{MaxDistance: d}); err == nil {
			t.Errorf("%s: no price error for MaxDistance %d", name, d)
		}
	}
}

// unfindableD5 is an exhaustive d=5 search for a target no seed in the
// ball hashes to: its oracle, the target's preimage, is a random seed far
// outside the d<=5 ball.
func unfindableD5() core.Task {
	r := rand.New(rand.NewPCG(9, 9))
	base, client := randSeed(r), randSeed(r)
	return core.Task{
		Base:        base,
		Target:      core.HashSeed(core.SHA3, client),
		MaxDistance: 5,
		Method:      iterseq.GrayCode,
		Exhaustive:  true,
		Oracle:      &client,
	}
}

// Each limit sits below the platform's d=5 exhaustive time.

func TestA100TimeLimit(t *testing.T) {
	checkTimeLimit(t, a100(core.SHA3), unfindableD5(), 2*time.Second)
}

func TestGeminiTimeLimit(t *testing.T) {
	checkTimeLimit(t, gemini(core.SHA3), unfindableD5(), 5*time.Second)
}

func TestEPYCTimeLimit(t *testing.T) {
	// Paper: SALTED-CPU with SHA-3 does not authenticate within T=20s.
	r := rand.New(rand.NewPCG(9, 9))
	base := randSeed(r)
	randSeed(r) // the draw unfindableD5 spends on its target
	client := puf.InjectNoise(base, base, 5, r)
	task := taskFor(core.SHA3, base, client, 5, iterseq.GrayCode)
	task.Exhaustive = true
	checkTimeLimit(t, epyc(core.SHA3), task, 20*time.Second)
}

func checkTimeLimit(t *testing.T, e *Engine, task core.Task, limit time.Duration) {
	t.Helper()
	task.TimeLimit = limit
	res, err := e.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Errorf("%s: expected a timeout at %v, modelled %.2fs", e.Name(), limit, res.DeviceSeconds)
	}
}

func TestEarlyExitFasterThanExhaustive(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 20))
	base := randSeed(r)
	client := puf.InjectNoise(base, base, 5, r)
	for _, e := range platforms(core.SHA3) {
		early, err := e.Search(context.Background(), taskFor(core.SHA3, base, client, 5, iterseq.GrayCode))
		if err != nil {
			t.Fatal(err)
		}
		task := taskFor(core.SHA3, base, client, 5, iterseq.GrayCode)
		task.Exhaustive = true
		exh, err := e.Search(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		if !(early.DeviceSeconds < exh.DeviceSeconds) {
			t.Errorf("%s: early %0.2fs not faster than exhaustive %0.2fs", e.Name(), early.DeviceSeconds, exh.DeviceSeconds)
		}
		if e.d.kernel == nil && early.HashesExecuted >= 1000 {
			t.Errorf("%s hashed %d seeds; a model without a kernel only verifies", e.Name(), early.HashesExecuted)
		}
	}
}
