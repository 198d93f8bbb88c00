// Energy: the Table 6 scenario - compare search time, energy and power
// of the simulated A100 GPU and Gemini APU for the exhaustive d=5 search,
// for both SHA-1 and SHA-3 - then hand the same traffic to the
// cost-based planner under a joules budget and watch it route each
// search to the cheapest engine.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"rbcsalted"
	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/device"
	"rbcsalted/internal/plan"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

func main() {
	r := rand.New(rand.NewPCG(2024, 7))
	base := u256.New(r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
	client := puf.InjectNoise(base, base, 5, r)

	fmt.Println("Exhaustive RBC-SALTED search, d=5 (u(5) = 8,987,138,113 seeds)")
	fmt.Printf("%-12s %-6s %10s %12s %10s %12s\n",
		"device", "hash", "search(s)", "energy(J)", "peak(W)", "J/Gseed")
	for _, alg := range []rbc.HashAlg{rbc.SHA1, rbc.SHA3} {
		for _, dev := range []struct {
			name string
			b    *device.Engine
		}{
			{"A100 GPU", device.NewA100(device.Config{Alg: alg}, cpu.MeasureHostCosts())},
			{"Gemini APU", device.NewGemini(device.Config{Alg: alg})},
		} {
			oracle := client
			res, err := dev.b.Search(context.Background(), rbc.Task{
				Base:        base,
				Target:      rbc.HashSeed(alg, client),
				MaxDistance: 5,
				Exhaustive:  true,
				Oracle:      &oracle,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s %-6s %10.2f %12.2f %10.2f %12.2f\n",
				dev.name, alg, res.DeviceSeconds, res.EnergyJoules, res.PeakWatts,
				res.EnergyJoules/(float64(res.SeedsCovered)/1e9))
		}
	}
	fmt.Println()
	fmt.Println("Paper Table 6: GPU/SHA-1 317 J, APU/SHA-1 124 J (APU wins);")
	fmt.Println("               GPU/SHA-3 947 J, APU/SHA-3 974 J (rough parity).")

	// The planner runs the same comparison live: give it the engine trio,
	// an energy-first policy and a joules budget, and it dispatches every
	// search to whichever engine its calibrated cost curves predict to be
	// cheapest for that shell depth.
	const budget = 2000.0
	cfg := device.Config{Alg: rbc.SHA3}
	planner, err := plan.New(plan.Config{
		Engines: []core.Backend{
			&cpu.Backend{Alg: rbc.SHA3},
			device.NewA100(cfg, cpu.MeasureHostCosts()),
			device.NewGemini(cfg),
		},
		Policy:       plan.PolicyEnergy,
		JoulesBudget: budget,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nPlanner dispatch, SHA-3 early-exit, %.0f J budget (policy energy)\n", budget)
	fmt.Printf("%-4s %10s %12s %-14s\n", "d", "search(s)", "energy(J)", "engine")
	for d := 1; d <= 5; d++ {
		r := rand.New(rand.NewPCG(9000+uint64(d), 11))
		base := u256.New(r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
		client := puf.InjectNoise(base, base, d, r)
		oracle := client
		before := engineDispatches(planner.Stats())
		res, err := planner.Search(context.Background(), rbc.Task{
			Base:        base,
			Target:      rbc.HashSeed(rbc.SHA3, client),
			MaxDistance: d,
			Oracle:      &oracle,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %10.3f %12.2f %-14s\n",
			d, res.DeviceSeconds, res.EnergyJoules, chosenEngine(before, planner.Stats()))
	}
	st := planner.Stats()
	fmt.Printf("\nbudget: %.1f of %.0f J spent across %d searches\n",
		st.JoulesSpent, st.JoulesBudget, st.Plans)
	fmt.Println("the low-power APU wins every shallow shell; at d=5 the GPU's")
	fmt.Println("throughput advantage makes it the cheaper joules-per-search bet.")
}

// engineDispatches snapshots per-engine dispatch counts.
func engineDispatches(st plan.Stats) map[string]uint64 {
	out := make(map[string]uint64, len(st.Engines))
	for _, e := range st.Engines {
		out[e.Name] = e.Dispatches
	}
	return out
}

// chosenEngine names the engine whose dispatch count advanced.
func chosenEngine(before map[string]uint64, after plan.Stats) string {
	for _, e := range after.Engines {
		if e.Dispatches > before[e.Name] {
			return e.Name
		}
	}
	return "?"
}
