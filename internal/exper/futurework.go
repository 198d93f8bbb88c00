package exper

import (
	"context"
	"fmt"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
)

// MultiAPU explores the paper's §5 future work: multi-APU scalability
// within a single node (8 APUs fit the 2U form factor of one A100 node),
// compared against the measured multi-GPU curve.
func MultiAPU() *Table {
	t := &Table{
		ID:      "multiapu",
		Title:   "Future work (§5): multi-APU vs multi-GPU scaling, SHA-3 exhaustive d=5",
		Headers: []string{"Node", "Devices", "Time (s)", "Speedup", "Energy (J)"},
	}
	sc := NewScenario(111, 5)

	var gpuBase float64
	for g := 1; g <= 3; g++ {
		b := device.NewA100(device.Config{Alg: core.SHA3, Devices: g}, hostCosts())
		res, err := b.Search(context.Background(), sc.Task(core.SHA3, 5, true))
		if err != nil {
			panic(err)
		}
		if g == 1 {
			gpuBase = res.DeviceSeconds
		}
		t.Rows = append(t.Rows, []string{
			"A100 GPUs", fmt.Sprint(g), secs(res.DeviceSeconds),
			fmt.Sprintf("%.2fx", gpuBase/res.DeviceSeconds),
			fmt.Sprintf("%.0f", res.EnergyJoules),
		})
	}
	var apuBase float64
	for _, g := range []int{1, 2, 4, 8} {
		b := device.NewGemini(device.Config{Alg: core.SHA3, Devices: g})
		res, err := b.Search(context.Background(), sc.Task(core.SHA3, 5, true))
		if err != nil {
			panic(err)
		}
		if g == 1 {
			apuBase = res.DeviceSeconds
		}
		t.Rows = append(t.Rows, []string{
			"Gemini APUs", fmt.Sprint(g), secs(res.DeviceSeconds),
			fmt.Sprintf("%.2fx", apuBase/res.DeviceSeconds),
			fmt.Sprintf("%.0f", res.EnergyJoules),
		})
	}
	t.Notes = append(t.Notes,
		"the APU's batch-boundary flag checks need no unified-memory traffic, so per-device sync is lighter than the GPU's - the basis of the paper's better-single-node-scaling conjecture")
	return t
}

// NoiseSecurity explores the paper's §5 security knob: deliberately
// injecting noise into the client's PUF output to deepen the search the
// server must do, raising the effective security margin while staying
// under T = 20 s on the accelerators.
func NoiseSecurity() *Table {
	t := &Table{
		ID:    "noisesecurity",
		Title: "Future work (§5): deliberate noise injection vs search time (SHA-3, exhaustive)",
		Headers: []string{"Total flipped bits d", "Seeds u(d)", "GPU (s)", "APU (s)",
			"64-core CPU (s)", "Within T=20s"},
	}
	for d := 3; d <= 6; d++ {
		sc := NewScenario(uint64(120+d), d)
		times := make([]float64, 3)
		backends := table5Backends(core.SHA3)
		for i, b := range backends {
			res, err := b.Search(context.Background(), sc.Task(core.SHA3, d, true))
			if err != nil {
				panic(err)
			}
			times[i] = res.DeviceSeconds
		}
		within := "GPU+APU"
		switch {
		case times[0] > 20 && times[1] > 20:
			within = "none"
		case times[1] > 20:
			within = "GPU only"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d), sci(combin.ExhaustiveSeeds(256, d)),
			secs(times[0]), secs(times[1]), secs(times[2]), within,
		})
	}
	t.Notes = append(t.Notes,
		"the GPU's 4.3x headroom under T=20s at d=5 is the noise-injection budget: a client whose natural error is below 5 bits can inject up to the d=5 envelope at no protocol cost",
		"u(6) is ~42x u(5), out of reach for every platform - the same wall that makes the opponent's 2^256 search hopeless")
	return t
}
