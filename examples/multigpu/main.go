// Multigpu: the Figure 4 scenario - scale the SALTED-GPU search across
// 1-3 simulated A100s for exhaustive and early-exit searches and print
// the speedup curves.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"rbcsalted"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/device"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

func main() {
	const trials = 40
	fmt.Println("Multi-GPU scalability of the d=5 search (simulated A100s)")
	for _, alg := range []rbc.HashAlg{rbc.SHA1, rbc.SHA3} {
		for _, exhaustive := range []bool{true, false} {
			label := "early-exit"
			if exhaustive {
				label = "exhaustive"
			}
			var base float64
			fmt.Printf("\n%s, %s:\n", alg, label)
			for g := 1; g <= 3; g++ {
				mean := meanSeconds(alg, g, exhaustive, trials)
				if g == 1 {
					base = mean
				}
				fmt.Printf("  %d GPU: %6.2fs  speedup %.2fx\n", g, mean, base/mean)
			}
		}
	}
	fmt.Println("\nPaper Figure 4: SHA-3 reaches 2.87x (exhaustive) and 2.66x")
	fmt.Println("(early exit) on 3 GPUs; SHA-1 scales worse than SHA-3.")
}

func meanSeconds(alg rbc.HashAlg, devices int, exhaustive bool, trials int) float64 {
	// The A100 model runs shared-memory iterator state (the paper's best
	// config) by default.
	backend := device.NewA100(device.Config{Alg: alg, Devices: devices}, cpu.MeasureHostCosts())
	n := trials
	if exhaustive {
		n = 1 // deterministic
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		r := rand.New(rand.NewPCG(uint64(100+i), 5))
		base := u256.New(r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
		client := puf.InjectNoise(base, base, 5, r)
		oracle := client
		res, err := backend.Search(context.Background(), rbc.Task{
			Base:        base,
			Target:      rbc.HashSeed(alg, client),
			MaxDistance: 5,
			Exhaustive:  exhaustive,
			Oracle:      &oracle,
		})
		if err != nil {
			log.Fatal(err)
		}
		sum += res.DeviceSeconds
	}
	return sum / float64(n)
}
