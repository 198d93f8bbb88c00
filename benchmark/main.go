// Command benchmark is the repository's wire-to-wire authentication
// benchmark: it builds a real rbc.NewServer node in-process (durable and
// replicated on three of the four workloads), serves it on loopback TCP,
// drives it through rbc.Dial, checks every result, and prints every
// metric by name and unit. README.md describes the workloads and the
// metrics; BENCHMARK.json at the repository root is the same definition
// for the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	var (
		opt      options
		name     = flag.String("workload", "", "workload to run (default: all four)")
		trace    = flag.Int("trace", 1, "1 adds the traced pass and the micro-timings and ends with the per-layer metrics; 0 measures the end-to-end metrics only")
		compare  = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
		contract = flag.Bool("contract", false, "print BENCHMARK.json and exit")
	)
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "measured seconds per workload, split over five segments")
	flag.IntVar(&opt.count, "count", 0, "requests per segment (0 sizes the segments from -seconds and the warm-up's rate)")
	flag.BoolVar(&opt.quick, "quick", false, "smoke run: 256 clients, 50 requests per segment, search bound 2")
	flag.StringVar(&opt.dataRoot, "data-root", os.TempDir(), "directory the durable workloads create their data directories in")
	flag.StringVar(&opt.outDir, "out-dir", "out", "directory for report.json and the span files")
	flag.Parse()

	switch {
	case *contract:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(benchmarkContract()); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if n := compareReports(os.Stdout, a, b); n > 0 {
			fmt.Printf("%d finding(s)\n", n)
			os.Exit(1)
		}
		return
	}

	opt.trace = *trace != 0
	opt.clients, opt.maxd = fullPopulation, maxDistance
	// One closed-loop connection per two cores: client and server take
	// turns on one, the follower and the kernel's block workers have the
	// other. README.md, "Why the measured loop is closed".
	opt.conc = max(1, runtime.GOMAXPROCS(0)/2)
	if opt.quick {
		opt.clients, opt.maxd = 256, 2
		if opt.count == 0 {
			opt.count = 50
		}
	}
	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workload{w}
	}
	if err := os.MkdirAll(opt.dataRoot, 0o755); err != nil {
		fatal(err)
	}

	rep := report{Environment: readEnvironment(opt)}
	printEnvironment(rep.Environment)
	correct := true
	for _, w := range run {
		wr, err := runWorkload(w, opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printWorkload(wr)
		rep.Workloads = append(rep.Workloads, wr)
		correct = correct && wr.Correct
	}
	if err := writeReport(opt.outDir, rep); err != nil {
		fatal(err)
	}
	// The result lines come last: one JSON object per workload, the
	// end-to-end metrics without tracing and the per-layer ones with it.
	for _, wr := range rep.Workloads {
		fmt.Println(resultLine(wr, opt.trace))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeReport(dir string, rep report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "report.json"), data, 0o644)
}

// resultLine is the one-line result the driver reads.
func resultLine(wr workloadReport, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	source := wr.EndToEnd
	if traced {
		source = wr.PerLayer
	}
	for name, m := range source {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	return string(line)
}

func printEnvironment(env environment) {
	fmt.Println("environment")
	data, _ := json.MarshalIndent(env, "  ", "  ")
	fmt.Printf("  %s\n", data)
}

func printWorkload(wr workloadReport) {
	fmt.Printf("\nworkload %s: closed loop, %d connections, %d requests per segment x %d segments", wr.Name, wr.Connections, wr.PerSegment, segments)
	if wr.OpenRate > 0 {
		fmt.Printf("; open-loop pass of %d requests at %.0f auth/s", wr.OpenRequests, wr.OpenRate)
	}
	fmt.Printf("\n  attempted %d, failed %d, correct %v\n", wr.Attempted, wr.Failed, wr.Correct)
	for _, p := range wr.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	fmt.Println("  end-to-end (median of segments [min .. max])")
	for _, d := range endToEndDefs {
		m := wr.EndToEnd[d.Name]
		fmt.Printf("    %-34s %14.4f %-8s [%.4f .. %.4f]", d.Name, m.Value, m.Unit, m.Min, m.Max)
		if m.Samples > 0 {
			fmt.Printf("  %d samples per segment", m.Samples)
		}
		fmt.Println()
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Println("  per layer")
	names := make([]string, 0, len(wr.PerLayer))
	for name := range wr.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := wr.PerLayer[name]
		fmt.Printf("    %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if wr.SpanFile != "" {
		fmt.Printf("  spans: %s\n", wr.SpanFile)
	}
}
