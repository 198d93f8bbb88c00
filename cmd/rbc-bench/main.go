// Command rbc-bench regenerates the paper's evaluation tables and
// figures.
//
// Usage:
//
//	rbc-bench                      # run every experiment
//	rbc-bench -experiment table5   # one experiment
//	rbc-bench -trials 1200         # paper-scale stochastic sampling
//	rbc-bench -csv                 # machine-readable output
//	rbc-bench -experiment hostthroughput -json BENCH_host.json
//	                               # host perf baseline (five sweeps: each
//	                               # row's median and floor) as JSON
//	rbc-bench -experiment hostthroughput -baseline BENCH_host.json
//	                               # gate: exit 1 if any kernel's speedup
//	                               # ratio falls >15% below the baseline
//	                               # row's floor
//	rbc-bench -experiment planner -json BENCH_planner.json
//	                               # planner vs fixed backends: latency,
//	                               # joules, SLO, d-crossovers
//	rbc-bench -experiment hostthroughput -cpuprofile cpu.pprof
//	                               # profile the run (go tool pprof)
//
// Run rbc-bench with an unknown -experiment to list the registered
// experiment ids (the list is generated from the registry).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rbcsalted/internal/exper"
	"rbcsalted/internal/plan"
)

func main() {
	// All exit paths funnel through run's return code so the profile
	// teardown defers always execute; os.Exit here would drop a partial
	// CPU profile on the floor.
	os.Exit(run())
}

func run() int {
	experiment := flag.String("experiment", "", "experiment id to run (empty = all)")
	trials := flag.Int("trials", 200, "stochastic trials for average-case rows (paper used 1200)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonPath := flag.String("json", "", "with -experiment hostthroughput or planner: also write the measurement to this file as JSON (hostthroughput: the baseline form, five sweeps merged)")
	baseline := flag.String("baseline", "", "with -experiment hostthroughput: committed BENCH_host.json to gate against; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.15, "with -baseline: allowed fractional speedup-ratio drop before a point counts as regressed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation (heap) profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbc-bench: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "rbc-bench: -cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rbc-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rbc-bench: -memprofile:", err)
			}
		}()
	}

	if *jsonPath != "" && *experiment != "hostthroughput" && *experiment != "planner" {
		fmt.Fprintln(os.Stderr, "rbc-bench: -json is only supported with -experiment hostthroughput or planner")
		return 2
	}
	if *baseline != "" && *experiment != "hostthroughput" {
		fmt.Fprintln(os.Stderr, "rbc-bench: -baseline is only supported with -experiment hostthroughput")
		return 2
	}
	render := func(tbl *exper.Table) error {
		if *csv {
			return tbl.RenderCSV(os.Stdout)
		}
		return tbl.Render(os.Stdout)
	}
	// emit renders the table of an experiment that was measured once and
	// (optionally) writes the JSON trajectory point from the same run.
	emit := func(tbl *exper.Table, json func() ([]byte, error)) error {
		if *jsonPath != "" {
			doc, err := json()
			if err == nil {
				err = os.WriteFile(*jsonPath, doc, 0o644)
			}
			if err != nil {
				return err
			}
		}
		return render(tbl)
	}
	if *experiment == "planner" {
		pb, err := exper.MeasurePlanner(*trials, plan.PolicyBalanced)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := emit(pb.Table(), pb.JSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if violations := exper.PlannerBenchViolations(pb, exper.PlannerBenchTolerance); len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "rbc-bench: planner dominated in %d cell(s):\n", len(violations))
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "  "+v)
			}
			return 1
		}
		return 0
	}
	if *experiment == "hostthroughput" {
		measure := exper.MeasureHostThroughput
		if *jsonPath != "" {
			measure = exper.MeasureHostBaseline
		}
		hb := measure()
		if err := emit(hb.Table(), hb.JSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if *baseline != "" {
			data, err := os.ReadFile(*baseline)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			bl, err := exper.ParseHostBench(data)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if violations := exper.HostBenchViolations(hb, bl, *tolerance); len(violations) > 0 {
				fmt.Fprintf(os.Stderr, "rbc-bench: %d regression(s) vs %s (SHA-3 kernel in service: %s here, %s in the baseline):\n",
					len(violations), *baseline, hb.KeccakISA, bl.KeccakISA)
				for _, v := range violations {
					fmt.Fprintln(os.Stderr, "  "+v)
				}
				return 1
			}
			fmt.Printf("baseline gate: all %d points hold %s's floors within %.0f%% (SHA-3 kernel in service: %s here, %s in the baseline)\n",
				len(bl.Points), *baseline, *tolerance*100, hb.KeccakISA, bl.KeccakISA)
		}
		return 0
	}

	var tables []*exper.Table
	if *experiment == "" {
		tables = exper.All(*trials)
	} else {
		tbl, err := exper.ByID(*experiment, *trials)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		tables = []*exper.Table{tbl}
	}

	for _, tbl := range tables {
		if err := render(tbl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}
