package exper

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/cryptoalg"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/cryptoalg/dilithium"
	"rbcsalted/internal/cryptoalg/saber"
	"rbcsalted/internal/device"
)

// hostCosts memoizes the calibration measurements for report tables.
func hostCosts() cpu.HostCosts { return cpu.MeasureHostCosts() }

// CPUScaling reproduces §4.3: SALTED-CPU strong scaling on the 64-core
// EPYC model (59x for SHA-1, 63x for SHA-3 at p=64), alongside a real
// measured point on this host.
func CPUScaling() *Table {
	t := &Table{
		ID:      "cpuscaling",
		Title:   "SALTED-CPU strong scaling (PlatformA model)",
		Headers: []string{"Hash", "p", "Modelled speedup", "Paper @64"},
	}
	for _, alg := range core.HashAlgs() {
		paper := map[core.HashAlg]string{core.SHA1: "59x", core.SHA3: "63x"}[alg]
		for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
			note := ""
			if p == 64 {
				note = paper
			}
			t.Rows = append(t.Rows, []string{
				alg.String(), fmt.Sprint(p),
				fmt.Sprintf("%.1fx", device.EPYCSpeedup(alg, p)), note,
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("this host has %d core(s); the model extrapolates the paper's near-perfect efficiency curve", runtime.NumCPU()))
	return t
}

// AwareVsSalted is the directly executed evidence for the paper's central
// optimization: the original, algorithm-aware RBC search generates a
// public key per candidate seed, RBC-SALTED hashes instead. Both engines
// really run here, at a host-feasible radius.
func AwareVsSalted(maxD int) *Table {
	if maxD <= 0 || maxD > 2 {
		maxD = 2
	}
	t := &Table{
		ID:      "awarevssalted",
		Title:   fmt.Sprintf("Executed on this host: algorithm-aware RBC vs RBC-SALTED, d=%d", maxD),
		Headers: []string{"Engine", "Per-candidate op", "Search time (s)", "Candidates", "Found"},
	}
	sc := NewScenario(91, maxD)

	// RBC-SALTED with SHA-3.
	salted := &cpu.Backend{Alg: core.SHA3}
	task := sc.Task(core.SHA3, maxD, false)
	task.Oracle = nil
	res, err := salted.Search(context.Background(), task)
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, []string{"RBC-SALTED", "SHA-3 hash", fmt.Sprintf("%.3f", res.DeviceSeconds),
		fmt.Sprint(res.SeedsCovered), fmt.Sprint(res.Found)})

	// Original algorithm-aware engines.
	for _, kg := range []cryptoalg.KeyGenerator{&aeskg.Generator{}, saber.Generator{}, dilithium.Generator{}} {
		target := kg.PublicKey(sc.Client.Bytes())
		aware := &cpu.AwareBackend{Keygen: kg}
		ares, err := aware.Search(context.Background(), cpu.AwareTask{
			Base:        sc.Base,
			TargetKey:   target,
			MaxDistance: maxD,
			Method:      defaultMethod,
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			"RBC-" + kg.Name(), kg.Name() + " keygen",
			fmt.Sprintf("%.3f", ares.DeviceSeconds),
			fmt.Sprint(ares.SeedsCovered), fmt.Sprint(ares.Found),
		})
	}
	t.Notes = append(t.Notes,
		"every row is genuinely executed end to end on this machine (no modelling)",
		"the PQC engines' per-candidate cost is why prior work could only reach d=4 within T=20s")
	return t
}

// registry lists every experiment in paper order. All, ByID and the
// unknown-experiment error are all generated from it, so adding an
// experiment here is the single registration step.
var registry = []struct {
	id string
	fn func(trials int) *Table
}{
	{"table1", func(int) *Table { return Table1() }},
	{"itermicro", func(int) *Table { return IteratorMicro() }},
	{"figure3", func(int) *Table { return Figure3() }},
	{"flaginterval", func(int) *Table { return FlagInterval() }},
	{"table4", func(int) *Table { return Table4() }},
	{"table5", Table5},
	{"table6", func(int) *Table { return Table6() }},
	{"figure4", func(trials int) *Table { return Figure4(trials / 4) }},
	{"table7", func(int) *Table { return Table7() }},
	{"cpuscaling", func(int) *Table { return CPUScaling() }},
	{"sharedmem", func(int) *Table { return SharedMem() }},
	{"awarevssalted", func(int) *Table { return AwareVsSalted(2) }},
	{"multiapu", func(int) *Table { return MultiAPU() }},
	{"noisesecurity", func(int) *Table { return NoiseSecurity() }},
	{"hostthroughput", func(int) *Table { return HostThroughput() }},
	{"planner", PlannerAblation},
}

// All returns every experiment in paper order. trials scales the
// stochastic average-case sample counts.
func All(trials int) []*Table {
	out := make([]*Table, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.fn(trials))
	}
	return out
}

// ExperimentIDs returns every registered experiment id, in run order.
func ExperimentIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// ByID returns the experiment with the given id, scaling stochastic
// sampling by trials.
func ByID(id string, trials int) (*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.fn(trials), nil
		}
	}
	return nil, fmt.Errorf("exper: unknown experiment %q (try: %s)",
		id, strings.Join(ExperimentIDs(), ", "))
}
