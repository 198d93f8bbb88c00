package exper

import (
	"context"
	"fmt"
	"math/big"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/cryptoalg"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/cryptoalg/dilithium"
	"rbcsalted/internal/cryptoalg/saber"
	"rbcsalted/internal/device"
	"rbcsalted/internal/iterseq"
)

// defaultMethod is the paper's best seed iterator (the Chase-class
// minimal-change sequence).
const defaultMethod = iterseq.GrayCode

// commSeconds is the paper's measured end-to-end communication constant.
const commSeconds = 0.90

// Table1 reproduces Table 1: seeds searched for exhaustive (Equation 1)
// and average-case (Equation 3) searches, d = 1..5.
func Table1() *Table {
	t := &Table{
		ID:      "table1",
		Title:   "Seeds searched per Hamming distance (exact; paper reports 2 s.f.)",
		Headers: []string{"d", "Exhaustive u(d)", "Average a(d)", "Paper u(d)", "Paper a(d)"},
	}
	paperU := []string{"256", "3.3e4", "2.8e6", "1.8e8", "9.0e9"}
	paperA := []string{"129", "1.7e4", "1.4e6", "9.0e7", "4.6e9"}
	for d := 1; d <= 5; d++ {
		u := combin.ExhaustiveSeeds(combin.SeedBits, d)
		a := combin.AverageSeeds(combin.SeedBits, d)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d), sci(u), sci(a), paperU[d-1], paperA[d-1],
		})
	}
	t.Notes = append(t.Notes,
		"u(d) includes the distance-0 seed; the paper rounds to the shell size at low d")
	return t
}

func sci(v *big.Int) string {
	f, _ := new(big.Float).SetInt(v).Float64()
	if f < 1e5 {
		return fmt.Sprintf("%.0f", f)
	}
	return fmt.Sprintf("%.3g", f)
}

// Table4 reproduces Table 4: total exhaustive search-only time for the
// three seed iterators (GPU, SHA-3, d=5). The minimal-change and
// Algorithm 515 rows are calibration anchors; Gosper is a model
// prediction.
func Table4() *Table {
	t := &Table{
		ID:      "table4",
		Title:   "Seed-iterator search-only time, SHA-3 exhaustive d=5, 1xA100 (s)",
		Headers: []string{"Iterator", "Model (s)", "Paper (s)", "Role"},
	}
	rows := []struct {
		method iterseq.Method
		label  string
		paper  string
		role   string
	}{
		{iterseq.GrayCode, "Minimal-change (Chase-class, Alg. 382 slot)", "4.67", "anchor"},
		{iterseq.Alg515, "Algorithm 515 (Buckles-Lybanon)", "7.53", "anchor"},
		{iterseq.Gosper, "Gosper's hack @256 bit (prior work)", "6.04", "prediction"},
		{iterseq.Mifsud154, "Lexicographic successor (Alg. 154)", "-", "extension"},
	}
	for _, r := range rows {
		sc := NewScenario(41, 5)
		b := device.NewA100(device.Config{Alg: core.SHA3}, hostCosts())
		task := sc.Task(core.SHA3, 5, true)
		task.Method = r.method
		res, err := b.Search(context.Background(), task)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{r.label, secs(res.DeviceSeconds), r.paper, r.role})
	}
	t.Notes = append(t.Notes,
		"per-seed iterator costs measured from the real Go implementations, translated to A100 cycles via the Alg. 515 anchor")
	return t
}

// table5Backends builds the three platforms for one hash algorithm.
func table5Backends(alg core.HashAlg) []core.Backend {
	return []core.Backend{
		device.NewA100(device.Config{Alg: alg}, hostCosts()),
		device.NewGemini(device.Config{Alg: alg}),
		device.NewEPYC(alg, hostCosts()),
	}
}

func platformLabel(i int) string {
	return [...]string{"SALTED-GPU", "SALTED-APU", "SALTED-CPU"}[i]
}

// Table5 reproduces Table 5: end-to-end response time for the three
// platforms x {SHA-1, SHA-3} x {exhaustive, average}, d=5, with the
// paper's 0.90 s communication constant. Average-case rows are the mean
// of `trials` stochastic scenarios (the paper used 1,200).
func Table5(trials int) *Table {
	if trials <= 0 {
		trials = 200
	}
	t := &Table{
		ID:    "table5",
		Title: fmt.Sprintf("End-to-end response time (s), d=5 (avg over %d trials)", trials),
		Headers: []string{"Algorithm", "Hash", "Search type", "Comm (s)", "Search (s)",
			"Total (s)", "Paper total (s)"},
	}
	paper := map[string]string{
		"SALTED-GPU/SHA-1/Exhaustive": "2.46", "SALTED-APU/SHA-1/Exhaustive": "2.52",
		"SALTED-CPU/SHA-1/Exhaustive": "12.99", "SALTED-GPU/SHA-1/Average": "1.75",
		"SALTED-APU/SHA-1/Average": "1.73", "SALTED-CPU/SHA-1/Average": "6.94",
		"SALTED-GPU/SHA-3/Exhaustive": "5.57", "SALTED-APU/SHA-3/Exhaustive": "14.85",
		"SALTED-CPU/SHA-3/Exhaustive": "61.58", "SALTED-GPU/SHA-3/Average": "3.32",
		"SALTED-APU/SHA-3/Average": "7.95", "SALTED-CPU/SHA-3/Average": "31.42",
	}
	for _, alg := range core.HashAlgs() {
		backends := table5Backends(alg)
		for i, b := range backends {
			// Exhaustive: one deterministic scenario, full coverage.
			res, err := b.Search(context.Background(), NewScenario(51, 5).Task(alg, 5, true))
			if err != nil {
				panic(err)
			}
			key := fmt.Sprintf("%s/%s/Exhaustive", platformLabel(i), alg)
			t.Rows = append(t.Rows, []string{
				platformLabel(i), alg.String(), "Exhaustive", secs(commSeconds),
				secs(res.DeviceSeconds), secs(commSeconds + res.DeviceSeconds), paper[key],
			})
		}
		for i, b := range backends {
			// Average case: stochastic seeds at exactly d=5, early exit.
			sum := 0.0
			for trial := 0; trial < trials; trial++ {
				sc := NewScenario(uint64(1000+trial), 5)
				res, err := b.Search(context.Background(), sc.Task(alg, 5, false))
				if err != nil {
					panic(err)
				}
				sum += res.DeviceSeconds
			}
			mean := sum / float64(trials)
			key := fmt.Sprintf("%s/%s/Average", platformLabel(i), alg)
			t.Rows = append(t.Rows, []string{
				platformLabel(i), alg.String(), "Average", secs(commSeconds),
				secs(mean), secs(commSeconds + mean), paper[key],
			})
		}
	}
	t.Notes = append(t.Notes,
		"comm time is the paper's measured 0.90 s constant (netproto.PaperLatency)",
		"exhaustive GPU/APU/CPU SHA-level times are calibration anchors; average-case values are model outputs")
	return t
}

// Table6 reproduces Table 6: search-only energy of the exhaustive d=5
// search on GPU and APU.
func Table6() *Table {
	t := &Table{
		ID:      "table6",
		Title:   "Search-only energy, exhaustive d=5",
		Headers: []string{"Algorithm", "SHA", "Joules", "Max W", "Idle W", "Paper J", "Paper max W"},
	}
	rows := []struct {
		backend core.Backend
		name    string
		alg     core.HashAlg
		idle    float64
		paperJ  string
		paperW  string
	}{
		{device.NewA100(device.Config{Alg: core.SHA1}, hostCosts()), "SALTED-GPU", core.SHA1, 31.53, "317.20", "253.43"},
		{device.NewGemini(device.Config{Alg: core.SHA1}), "SALTED-APU", core.SHA1, 22.10, "124.43", "83.81"},
		{device.NewA100(device.Config{Alg: core.SHA3}, hostCosts()), "SALTED-GPU", core.SHA3, 31.53, "946.55", "258.29"},
		{device.NewGemini(device.Config{Alg: core.SHA3}), "SALTED-APU", core.SHA3, 22.10, "974.06", "83.63"},
	}
	for _, r := range rows {
		res, err := r.backend.Search(context.Background(), NewScenario(61, 5).Task(r.alg, 5, true))
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			r.name, map[core.HashAlg]string{core.SHA1: "1", core.SHA3: "3"}[r.alg],
			fmt.Sprintf("%.2f", res.EnergyJoules), fmt.Sprintf("%.2f", res.PeakWatts),
			fmt.Sprintf("%.2f", r.idle), r.paperJ, r.paperW,
		})
	}
	t.Notes = append(t.Notes,
		"energy = calibrated average active draw x modelled search time; idle draw included, as in the paper")
	return t
}

// Table7 reproduces Table 7: execution time of prior RBC engines vs this
// work. Prior-work GPU/CPU times are the paper's published measurements;
// the "Go-measured" column prices each engine's per-candidate operation
// as actually measured from this repository's from-scratch AES / SABER /
// Dilithium implementations, scaled to the 64-core PlatformA model.
func Table7() *Table {
	t := &Table{
		ID:    "table7",
		Title: "Comparison with prior RBC engines (d as in the paper)",
		Headers: []string{"Ref", "Engine", "d", "Paper CPU (s)", "Paper GPU (s)",
			"Go-measured op (us)", "Modelled 64-core CPU (s)", "This-work APU (s)"},
	}
	type baseline struct {
		ref    string
		engine string
		keygen cryptoalg.KeyGenerator
		d      int
		cpu    string
		gpu    string
	}
	baselines := []baseline{
		{"[39]", "AES-128", &aeskg.Generator{}, 5, "44.7", "2.56"},
		{"[29]", "LightSaber", saber.Generator{}, 4, "44.58", "14.03"},
		{"[40]", "Dilithium3", dilithium.Generator{}, 4, "204.92", "27.91"},
	}
	for _, b := range baselines {
		opNs := timeOp(func() {
			var seed [32]byte
			seed[0] = 1
			b.keygen.PublicKey(seed)
		})
		seeds, _ := new(big.Float).SetInt(combin.ExhaustiveSeeds(256, b.d)).Float64()
		modelled := seeds * opNs * 1e-9 / device.EPYCSpeedup(core.SHA3, 64)
		t.Rows = append(t.Rows, []string{
			b.ref, b.engine, fmt.Sprint(b.d), b.cpu, b.gpu,
			fmt.Sprintf("%.1f", opNs/1000), secs(modelled), "-",
		})
	}
	// This work: SHA-3 SALTED at d=5 on all three platforms.
	sc := NewScenario(71, 5)
	cpuRes, err := device.NewEPYC(core.SHA3, hostCosts()).Search(context.Background(), sc.Task(core.SHA3, 5, true))
	if err != nil {
		panic(err)
	}
	gpuRes, err := device.NewA100(device.Config{Alg: core.SHA3}, hostCosts()).
		Search(context.Background(), sc.Task(core.SHA3, 5, true))
	if err != nil {
		panic(err)
	}
	apuRes, err := device.NewGemini(device.Config{Alg: core.SHA3}).
		Search(context.Background(), sc.Task(core.SHA3, 5, true))
	if err != nil {
		panic(err)
	}
	hashNs := hostCosts().SHA3Ns
	t.Rows = append(t.Rows, []string{
		"here", "RBC-SALTED SHA-3", "5",
		secs(cpuRes.DeviceSeconds), secs(gpuRes.DeviceSeconds),
		fmt.Sprintf("%.1f", hashNs/1000), secs(cpuRes.DeviceSeconds),
		secs(apuRes.DeviceSeconds),
	})
	t.Notes = append(t.Notes,
		"paper CPU/GPU columns are the published prior-work measurements (their optimized C/CUDA)",
		"Go-measured column: per-candidate cost of this repo's from-scratch implementations; the PQC engines cost 1-2 orders of magnitude more per seed than hashing, which is the paper's core claim",
	)
	return t
}
