package exper

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/keccak"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/u256"
)

// HostBenchSchema identifies the BENCH_host.json format. Bump on any
// field change so trajectory tooling can tell points apart.
//
// v2: one point per (algorithm, iteration method, batch kernel) instead
// of a single anonymous "batched" engine per cell, so the 64-wide and
// 256-wide bit-sliced paths (and the multi-buffer SHA-1 path) each leave
// their own trajectory and the bench-smoke gate can catch one of them
// regressing behind another.
//
// v3: each kernel point additionally records the measured fill and pack
// phase cost (ns/seed, from a dedicated instrumented pass) separately
// from compression, so the marshalling overhead the sliced-domain delta
// kernel eliminates is a tracked number rather than an inference from
// end-to-end throughput.
//
// v4: one batch kernel per algorithm (the rows of the kernels that lost
// are gone with the kernels; DESIGN.md §11 keeps their v3 numbers), and
// the document records which Keccak round implementation the host ran
// (keccak_isa), without which two SHA-3 rows are not comparable.
//
// v5: every row names the kernel implementation that produced it
// (impl), the SHA-3 kernel is measured once per implementation the CPU
// can run, and the gate compares a row only with a fresh row of the
// same implementation - so a baseline generated on an AVX-512 machine
// still gates a runner without it, on the portable rows both can run.
//
// v6: a committed baseline merges HostBaselineSweeps sweeps (the sweeps
// field): each row is the sweep with the median speedup, whole, and
// speedup_floor is the lowest speedup any sweep read - the number the
// gate holds a fresh sweep to. One sweep's rows are one round's
// throughputs, so speedup is always batched/scalar of the row it sits in.
const HostBenchSchema = "rbc-salted/host-bench/v6"

// HostBaselineSweeps is how many whole sweeps MeasureHostBaseline
// measures. On a shared 2-vCPU guest the SHA-3 scalar loop runs at
// ~1.0-2.0 M seeds/s from one minute to the next (the load on the
// sibling hyperthread and the package's turbo), while the AVX-512
// kernel holds ~10-14 M, so an AVX-512 row reads anywhere in 7-11x: one
// sweep cannot be both the typical row and the floor a fresh sweep
// stays above.
const HostBaselineSweeps = 5

// HostBenchPoint is one (algorithm, iteration method) cell of the host
// throughput measurement: the scalar one-seed-at-a-time engine against
// the algorithm's batch kernel, in seeds per second. Speedup - their
// ratio - is the number that transfers across machines and the one the
// baseline gate compares; the absolute throughputs are context.
type HostBenchPoint struct {
	Alg    string `json:"alg"`
	Method string `json:"method"`
	Kernel string `json:"kernel"`
	// Impl is the kernel body that ran: keccak.ImplAVX512 or
	// keccak.ImplPortable for SHA-3, always portable for SHA-1 (its
	// kernel is plain Go on every host).
	Impl               string  `json:"impl"`
	Width              int     `json:"width"`
	ScalarSeedsPerSec  float64 `json:"scalar_seeds_per_sec"`
	BatchedSeedsPerSec float64 `json:"batched_seeds_per_sec"`
	Speedup            float64 `json:"speedup"`
	// SpeedupFloor is the lowest speedup over the sweeps that made the
	// row (Speedup itself for a single sweep); the gate holds a fresh
	// row to it.
	SpeedupFloor float64 `json:"speedup_floor"`
	// FillNsPerSeed and PackNsPerSeed split out the batched path's
	// non-compression phases, measured in a separate instrumented pass
	// (capturePhases): fill is the iterator drain (successor steps in
	// FillMasks), pack is candidate marshalling into the kernel's layout
	// (base^mask materialization).
	FillNsPerSeed float64 `json:"fill_ns_per_seed"`
	PackNsPerSeed float64 `json:"pack_ns_per_seed"`
}

// HostBench is the full host-throughput measurement - the perf
// trajectory point emitted as BENCH_host.json by `make bench`.
type HostBench struct {
	Schema        string           `json:"schema"`
	GeneratedAt   string           `json:"generated_at"`
	GoVersion     string           `json:"go_version"`
	GoOS          string           `json:"goos"`
	GoArch        string           `json:"goarch"`
	NumCPU        int              `json:"num_cpu"`
	KeccakISA     string           `json:"keccak_isa"`
	Workers       int              `json:"workers"`
	Distance      int              `json:"distance"`
	SeedsPerShell uint64           `json:"seeds_per_shell"`
	Sweeps        int              `json:"sweeps"`
	Points        []HostBenchPoint `json:"points"`
}

// hostBenchDistance is the shell the measurement covers exhaustively:
// d=2 is C(256,2) = 32640 seeds, small enough to repeat until the
// timing windows stabilize and large enough to amortize setup.
const hostBenchDistance = 2

// MeasureHostThroughput measures the real host search engine - the
// scalar quick-reject loop against the algorithm's batch kernel - over
// one exhaustive d=2 shell for every algorithm and iteration method,
// and for every implementation of the SHA-3 kernel this CPU can run
// (the start-up choice first; KeccakISA records it). A single worker is
// used so the numbers track the hot loop itself rather than the host's
// core count; Workers records it, NumCPU records the machine. It forces
// the kernel implementation and must not run beside a search.
func MeasureHostThroughput() HostBench {
	hb := HostBench{
		Schema:      HostBenchSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		KeccakISA:   keccak.SeedDigests8Impl(),
		Workers:     1,
		Distance:    hostBenchDistance,
		Sweeps:      1,
	}
	hb.SeedsPerShell, _ = combin.Binomial64(256, hostBenchDistance)

	base := u256.New(0xfeedbeef, 0x12345678, 0x9abcdef0, 0x0f1e2d3c)
	for _, alg := range core.HashAlgs() {
		// The target is the base's own digest: at distance 0 it is
		// outside the measured shell, so every candidate is hashed and
		// rejected - the worst-case (and steady-state) search load.
		target := core.HashSeed(alg, base)
		batched := core.HashMatcherFactory(alg, target)
		scalar := core.ScalarMatcher(batched)
		width := core.NewHashMatcher(alg, target).BatchWidth()
		impls := []string{keccak.ImplPortable}
		if alg == core.SHA3 {
			impls = keccak.SeedDigests8Impls()
		}
		for _, impl := range impls {
			restore := keccak.ForceSeedDigests8Impl(impl)
			for _, method := range iterseq.Methods() {
				sc, bt := measureRow(base, method, scalar, batched, hb.SeedsPerShell)
				fill, pack := capturePhases(base, method, batched, hb.SeedsPerShell)
				hb.Points = append(hb.Points, HostBenchPoint{
					Alg:                alg.String(),
					Method:             method.String(),
					Kernel:             core.DefaultKernel(alg).String(),
					Impl:               impl,
					Width:              width,
					ScalarSeedsPerSec:  sc,
					BatchedSeedsPerSec: bt,
					Speedup:            bt / sc,
					SpeedupFloor:       bt / sc,
					FillNsPerSeed:      fill,
					PackNsPerSeed:      pack,
				})
			}
			restore()
		}
	}
	return hb
}

// MeasureHostBaseline measures HostBaselineSweeps whole sweeps and
// merges them into the form committed as BENCH_host.json (see
// mergeHostSweeps).
func MeasureHostBaseline() HostBench {
	sweeps := make([]HostBench, HostBaselineSweeps)
	for i := range sweeps {
		sweeps[i] = MeasureHostThroughput()
	}
	return mergeHostSweeps(sweeps)
}

// mergeHostSweeps keeps, for each row, the sweep whose speedup is the
// median - the whole row, so its columns still agree - and records the
// lowest speedup any sweep read as the row's floor. The sweeps come
// from one process, so they list the same rows in the same order.
func mergeHostSweeps(sweeps []HostBench) HostBench {
	hb := sweeps[0]
	hb.Sweeps = len(sweeps)
	hb.Points = make([]HostBenchPoint, len(sweeps[0].Points))
	row := make([]HostBenchPoint, len(sweeps))
	for i := range hb.Points {
		for s, sw := range sweeps {
			row[s] = sw.Points[i]
		}
		slices.SortFunc(row, func(a, b HostBenchPoint) int { return cmp.Compare(a.Speedup, b.Speedup) })
		hb.Points[i] = row[len(row)/2]
		hb.Points[i].SpeedupFloor = row[0].Speedup
	}
	return hb
}

// capturePhases runs one exhaustive shell with the host batch-phase
// histograms installed and returns the mean fill and pack cost in
// nanoseconds per seed. It is a dedicated untimed pass, separate from
// the timed windows: the windows interleave engines, so one shared
// process-global histogram would mix their observations, and the
// timestamp reads would perturb the throughput numbers they exist to
// explain. The previously installed hooks are restored on return.
func capturePhases(base u256.Uint256, method iterseq.Method, factory core.MatcherFactory, shellSeeds uint64) (fillNs, packNs float64) {
	hbm := core.RegisterHostBatchMetrics(obs.NewRegistry())
	prev := core.SetHostBatchMetrics(hbm)
	defer core.SetHostBatchMetrics(prev)
	_, _, covered, _, err := core.SearchShellHost(
		context.Background(), base, hostBenchDistance, method, 1, 0,
		true, time.Time{}, factory)
	if err != nil {
		panic(err)
	}
	if covered != shellSeeds {
		panic(fmt.Sprintf("exper: phase capture covered %d of %d seeds", covered, shellSeeds))
	}
	s := float64(shellSeeds)
	return hbm.Fill.Snapshot().Sum / s, hbm.Pack.Snapshot().Sum / s
}

// measureRow returns exhaustive-search throughput in seeds/sec for the
// scalar engine and the batch kernel over the d=2 shell. The two
// engines' timing windows are interleaved - scalar, batched, scalar,
// ... - in hostBenchRounds rounds of one short window each, and both
// throughputs come from the round whose batched/scalar ratio is the
// median. A round's two windows are adjacent and short, so they see the
// same host load. Taking each engine's best of six 80ms windows instead
// let a load change between windows hand one engine a fast window the
// other never saw, and a kernel at scalar parity then read anywhere from
// 0.68x to 1.39x between runs.
func measureRow(base u256.Uint256, method iterseq.Method, scalar, batched core.MatcherFactory, shellSeeds uint64) (sc, bt float64) {
	shell := func(factory core.MatcherFactory) func() {
		return func() {
			_, _, covered, _, err := core.SearchShellHost(
				context.Background(), base, hostBenchDistance, method, 1, 0,
				true, time.Time{}, factory)
			if err != nil {
				panic(err)
			}
			if covered != shellSeeds {
				panic(fmt.Sprintf("exper: host bench covered %d of %d seeds", covered, shellSeeds))
			}
		}
	}
	calibrate := func(run func()) int {
		reps := 1
		for {
			start := time.Now()
			for i := 0; i < reps; i++ {
				run()
			}
			if time.Since(start) >= hostBenchWindow {
				return reps
			}
			reps *= 2
		}
	}
	window := func(run func(), reps int) float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			run()
		}
		return float64(shellSeeds) * float64(reps) / time.Since(start).Seconds()
	}

	runs := [2]func(){shell(scalar), shell(batched)}
	reps := [2]int{calibrate(runs[0]), calibrate(runs[1])}
	var rounds [hostBenchRounds][2]float64
	for w := range rounds {
		// Alternate which engine leads each round so neither
		// systematically inherits the other's warm caches (or pays for a
		// scheduler preemption) more often.
		for off := 0; off < 2; off++ {
			i := (off + w) % 2
			rounds[w][i] = window(runs[i], reps[i])
		}
	}
	slices.SortFunc(rounds[:], func(a, b [2]float64) int { return cmp.Compare(a[1]/a[0], b[1]/b[0]) })
	mid := rounds[len(rounds)/2]
	return mid[0], mid[1]
}

// hostBenchRounds is the number of interleaved rounds measureRow times
// (odd, so the median round is one round), and hostBenchWindow the
// least time one engine's window runs: about one scalar SHA-3 shell.
const (
	hostBenchRounds = 21
	hostBenchWindow = 20 * time.Millisecond
)

// HostBenchViolations compares a fresh measurement against a committed
// baseline and returns one message per regression. The comparison is on
// speedup ratios, not absolute seeds/sec - ratios are what transfer
// across machines, so the gate works on any host that can run the
// bench - but only between equal kernel implementations, so a baseline
// row whose implementation this host did not measure (it cannot run
// it) is skipped. A point regresses when its ratio falls more than tol
// (e.g. 0.15 for 15%) below the baseline row's floor - the lowest ratio
// any of the baseline's sweeps read - and independently whenever a
// kernel whose floor beat scalar by more than tol drops to or below
// scalar parity. A floor within tol of parity - a kernel that only
// matches scalar - is held by the ratio rule alone, so a 1.02x baseline
// re-measured at 0.99x is noise, not a parity failure. A nil return
// means the measurement holds the baseline.
func HostBenchViolations(fresh, baseline HostBench, tol float64) []string {
	var v []string
	if fresh.Schema != baseline.Schema {
		v = append(v, fmt.Sprintf("schema mismatch: fresh %q vs baseline %q (regenerate the baseline)", fresh.Schema, baseline.Schema))
		return v
	}
	type key struct{ alg, method, kernel, impl string }
	got := make(map[key]HostBenchPoint, len(fresh.Points))
	measured := map[string]bool{}
	for _, p := range fresh.Points {
		got[key{p.Alg, p.Method, p.Kernel, p.Impl}] = p
		measured[p.Impl] = true
	}
	for _, b := range baseline.Points {
		if !measured[b.Impl] {
			continue
		}
		name := fmt.Sprintf("%s/%s/%s/%s", b.Alg, b.Method, b.Kernel, b.Impl)
		f, ok := got[key{b.Alg, b.Method, b.Kernel, b.Impl}]
		if !ok {
			v = append(v, name+": missing from fresh measurement")
			continue
		}
		if f.Speedup < b.SpeedupFloor*(1-tol) {
			v = append(v, fmt.Sprintf("%s: speedup %.2fx fell below the baseline's floor %.2fx by more than %.0f%%",
				name, f.Speedup, b.SpeedupFloor, tol*100))
		}
		if b.SpeedupFloor > 1+tol && f.Speedup <= 1.0 {
			v = append(v, fmt.Sprintf("%s: speedup %.2fx dropped to or below scalar parity (baseline floor %.2fx)",
				name, f.Speedup, b.SpeedupFloor))
		}
	}
	return v
}

// Table renders the measurement in the experiment-table format.
func (hb HostBench) Table() *Table {
	t := &Table{
		ID:    "hostthroughput",
		Title: fmt.Sprintf("Host search throughput, exhaustive d=%d shell (%d seeds), 1 worker", hb.Distance, hb.SeedsPerShell),
		Headers: []string{
			"Hash", "Iterator", "Kernel", "Impl", "Width", "Scalar seeds/s", "Batched seeds/s", "Speedup", "Fill ns/seed", "Pack ns/seed",
		},
	}
	for _, p := range hb.Points {
		t.Rows = append(t.Rows, []string{
			p.Alg, p.Method, p.Kernel, p.Impl,
			fmt.Sprintf("%d", p.Width),
			fmt.Sprintf("%.0f", p.ScalarSeedsPerSec),
			fmt.Sprintf("%.0f", p.BatchedSeedsPerSec),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.1f", p.FillNsPerSeed),
			fmt.Sprintf("%.1f", p.PackNsPerSeed),
		})
	}
	t.Notes = append(t.Notes,
		"each algorithm's batch kernel is measured against the scalar quick-reject loop; the speedup ratio is what the baseline gate compares",
		fmt.Sprintf("%d sweep(s): each row is the sweep with the median speedup; the gate holds a fresh sweep to the lowest (speedup_floor in the JSON)", hb.Sweeps),
		"fill/pack ns/seed are from a separate instrumented pass: fill = iterator drain, pack = base^mask materialization into the kernel layout",
		fmt.Sprintf("%s %s/%s, %d cores, SHA-3 kernel in service: %s", hb.GoVersion, hb.GoOS, hb.GoArch, hb.NumCPU, hb.KeccakISA),
	)
	return t
}

// JSON renders the measurement as the BENCH_host.json document.
func (hb HostBench) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(hb, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ParseHostBench decodes a BENCH_host.json document (strictly: unknown
// fields are schema drift, not noise).
func ParseHostBench(data []byte) (HostBench, error) {
	var hb HostBench
	if err := json.Unmarshal(data, &hb); err != nil {
		return HostBench{}, fmt.Errorf("exper: parsing host bench: %w", err)
	}
	return hb, nil
}

// HostThroughput runs the host throughput experiment for the standard
// table pipeline (rbc-bench, EXPERIMENTS.md).
func HostThroughput() *Table {
	return MeasureHostThroughput().Table()
}
