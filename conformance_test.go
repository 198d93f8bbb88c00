package rbc

// The engine conformance table: the check for the invariant "every
// engine returns the same winner and the same covered count as scalar".
// One list of engines, shared by every cross-engine test in this
// package; a new engine is added here once.

import (
	"context"
	"errors"
	"testing"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/device"
	"rbcsalted/internal/iterseq"
)

// backendFunc adapts a search function to Backend.
type backendFunc struct {
	name   string
	search func(context.Context, Task) (Result, error)
}

func (b backendFunc) Name() string { return b.name }
func (b backendFunc) Search(ctx context.Context, task Task) (Result, error) {
	return b.search(ctx, task)
}

// conformanceEngines builds every engine for alg: cpu, the EPYC model,
// the A100 and Gemini models on both their executed path (every shell
// inside ExecBudget) and their analytically planned one (none is), the
// same two at Devices: 3, and — when the ball fits its depth cap — the
// inline fast path.
func conformanceEngines(t *testing.T, alg HashAlg, maxDistance int) []Backend {
	t.Helper()
	shell, _ := combin.Binomial64(256, maxDistance)
	engines := []Backend{
		&CPUBackend{Alg: alg, Workers: 2},
		device.NewEPYC(alg, cpu.MeasureHostCosts()),
	}
	models := []func(device.Config) Backend{
		func(cfg device.Config) Backend { return device.NewA100(cfg, cpu.MeasureHostCosts()) },
		func(cfg device.Config) Backend { return device.NewGemini(cfg) },
	}
	for _, devices := range []int{1, 3} {
		for _, model := range models {
			for _, budget := range []uint64{shell, 1} {
				engines = append(engines, model(device.Config{Alg: alg, Devices: devices, ExecBudget: budget, HostWorkers: 2}))
			}
		}
	}

	if maxDistance <= core.MaxInlineDepth {
		engines = append(engines, backendFunc{core.InlineName, func(ctx context.Context, task Task) (Result, error) {
			return core.SearchInline(ctx, task, task.MaxDistance)
		}})
	}
	return engines
}

// scalarWalk is the reference Algorithm 1: one hash per candidate, in
// the task's iteration order, no engine and no driver.
func scalarWalk(t *testing.T, task Task) (found bool, seed Seed, distance int) {
	t.Helper()
	alg := task.Target.Alg
	if task.IncludeBase() && HashSeed(alg, task.Base).Equal(task.Target) {
		return true, task.Base, 0
	}
	for d := task.StartShell(); d <= task.MaxDistance; d++ {
		it, err := iterseq.New(task.Method, 256, d, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		var mask [1]Seed
		for it.FillMasks(mask[:]) == 1 {
			if c := iterseq.ApplyMask(task.Base, mask[0]); HashSeed(alg, c).Equal(task.Target) {
				return true, c, d
			}
		}
	}
	return false, Seed{}, 0
}

// ballSize returns the number of seeds an exhaustive search of task
// covers: every shell from StartShell to MaxDistance, plus the base
// probe iff the task includes it.
func ballSize(task Task) uint64 {
	var n uint64
	if task.IncludeBase() {
		n++
	}
	for d := task.StartShell(); d <= task.MaxDistance; d++ {
		c, _ := combin.Binomial64(256, d)
		n += c
	}
	return n
}

func checkShellStats(t *testing.T, task Task, res Result) {
	t.Helper()
	covered := res.SeedsCovered
	if task.IncludeBase() {
		covered--
	}
	for i, sh := range res.Shells {
		if sh.Distance != task.StartShell()+i {
			t.Errorf("shell %d has distance %d, want %d", i, sh.Distance, task.StartShell()+i)
		}
		covered -= sh.SeedsCovered
	}
	if covered != 0 {
		t.Errorf("shells and base probe do not add up to SeedsCovered %d (off by %d): %+v", res.SeedsCovered, int64(covered), res.Shells)
	}
}

func TestEngineConformance(t *testing.T) {
	const maxDistance = 2
	for _, alg := range core.HashAlgs() {
		engines := conformanceEngines(t, alg, maxDistance)
		base, client := scenario(uint64(31+alg), maxDistance)
		for _, minDistance := range []int{0, 1, 2} {
			for _, exhaustive := range []bool{false, true} {
				oracle := client
				task := Task{
					Base:        base,
					Target:      HashSeed(alg, client),
					MaxDistance: maxDistance,
					MinDistance: minDistance,
					Exhaustive:  exhaustive,
					Oracle:      &oracle,
				}
				wantFound, wantSeed, wantDistance := scalarWalk(t, task)
				if !wantFound || wantDistance != maxDistance {
					t.Fatalf("scenario: reference walk found=%v at d=%d", wantFound, wantDistance)
				}
				for _, b := range engines {
					t.Run(b.Name()+"/"+map[bool]string{false: "early-exit", true: "exhaustive"}[exhaustive]+"/min"+string(rune('0'+minDistance)), func(t *testing.T) {
						res, err := b.Search(context.Background(), task)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Found || !res.Seed.Equal(wantSeed) || res.Distance != wantDistance {
							t.Errorf("found=%v seed=%v distance=%d, reference walk found %v at %d", res.Found, res.Seed, res.Distance, wantSeed, wantDistance)
						}
						if want := maxDistance - task.StartShell() + 1; len(res.Shells) != want {
							t.Errorf("%d shell stats, want %d", len(res.Shells), want)
						}
						checkShellStats(t, task, res)
						if exhaustive && res.SeedsCovered != ballSize(task) {
							t.Errorf("exhaustive search covered %d seeds, the ball holds %d", res.SeedsCovered, ballSize(task))
						}
						// A modelled engine prices and charges through one
						// function: on an exhaustive task the prediction is
						// the modelled search, to the bit.
						if m, ok := b.(*device.Engine); ok && exhaustive {
							cost, err := m.PredictCost(task)
							if err != nil {
								t.Fatal(err)
							}
							if cost.Seconds != res.DeviceSeconds || cost.Joules != res.EnergyJoules {
								t.Errorf("predicted %gs/%gJ, modelled %gs/%gJ", cost.Seconds, cost.Joules, res.DeviceSeconds, res.EnergyJoules)
							}
						}

						cancelled, cancel := context.WithCancel(context.Background())
						cancel()
						res, err = b.Search(cancelled, task)
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("cancelled search: err = %v", err)
						}
						if res.Found {
							t.Errorf("cancelled search found %v", res.Seed)
						}
						checkShellStats(t, task, res)

						if cm, ok := b.(core.CostModel); ok && minDistance > 0 {
							full := task
							full.MinDistance = 0
							fullCost, err := cm.PredictCost(full)
							if err != nil {
								t.Fatal(err)
							}
							cost, err := cm.PredictCost(task)
							if err != nil {
								t.Fatal(err)
							}
							if !(cost.Seconds < fullCost.Seconds) {
								t.Errorf("escalated task priced at %gs, the full task at %gs", cost.Seconds, fullCost.Seconds)
							}
						}
					})
				}
			}
		}
	}
}

// TestEscalatedTaskNeverTouchesBase: a task with MinDistance > 0 says
// the caller already covered distance 0, so no engine may probe, count
// or find it — even when the base is the seed searched for.
func TestEscalatedTaskNeverTouchesBase(t *testing.T) {
	const maxDistance = 2
	for _, alg := range core.HashAlgs() {
		base, _ := scenario(uint64(41+alg), 0)
		oracle := base
		task := Task{
			Base:        base,
			Target:      HashSeed(alg, base),
			MaxDistance: maxDistance,
			MinDistance: 1,
			Oracle:      &oracle,
		}
		for _, b := range conformanceEngines(t, alg, maxDistance) {
			res, err := b.Search(context.Background(), task)
			if err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
			if res.Found {
				t.Errorf("%s: found the base at distance %d on a task that starts at shell 1", b.Name(), res.Distance)
			}
			if res.SeedsCovered != ballSize(task) {
				t.Errorf("%s: covered %d seeds, shells 1..%d hold %d", b.Name(), res.SeedsCovered, maxDistance, ballSize(task))
			}
		}
	}
}
