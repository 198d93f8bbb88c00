package exper

import (
	"strings"
	"testing"
)

// TestHostBenchGateComparesEqualImplementations: a baseline generated
// on an AVX-512 machine must still gate a runner that can only measure
// the portable rows - on those rows, and on nothing else.
func TestHostBenchGateComparesEqualImplementations(t *testing.T) {
	row := func(alg, impl string, speedup float64) HostBenchPoint {
		return HostBenchPoint{Alg: alg, Method: "graycode", Kernel: "k", Impl: impl, Speedup: speedup, SpeedupFloor: speedup}
	}
	baseline := HostBench{Schema: HostBenchSchema, Points: []HostBenchPoint{
		row("SHA-1", "portable", 1.3), row("SHA-3", "avx512", 40), row("SHA-3", "portable", 8),
	}}
	fresh := HostBench{Schema: HostBenchSchema, Points: []HostBenchPoint{
		row("SHA-1", "portable", 1.3), row("SHA-3", "portable", 7.5),
	}}
	if v := HostBenchViolations(fresh, baseline, 0.15); v != nil {
		t.Errorf("portable-only runner within tolerance: unexpected violations %v", v)
	}

	fresh.Points[1].Speedup = 6 // 25% below the portable baseline row
	v := HostBenchViolations(fresh, baseline, 0.15)
	if len(v) != 1 || !strings.Contains(v[0], "SHA-3/graycode/k/portable") {
		t.Errorf("regressed portable row: violations %v, want exactly the portable SHA-3 row", v)
	}

	// A row of an implementation the runner did measure must be present.
	fresh.Points = fresh.Points[:1]
	v = HostBenchViolations(fresh, baseline, 0.15)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Errorf("dropped portable SHA-3 row: violations %v, want one missing-row report", v)
	}
}

// TestHostBenchGateParityRule: a kernel that only matches scalar may
// re-measure on either side of 1.0x, but one that clearly beat scalar
// must not fall to parity.
func TestHostBenchGateParityRule(t *testing.T) {
	gate := func(base, fresh float64) []string {
		row := func(speedup float64) HostBench {
			return HostBench{Schema: HostBenchSchema, Points: []HostBenchPoint{
				{Alg: "SHA-3", Method: "graycode", Kernel: "k", Impl: "portable", Speedup: speedup, SpeedupFloor: speedup},
			}}
		}
		return HostBenchViolations(row(fresh), row(base), 0.15)
	}
	if v := gate(1.02, 0.99); v != nil {
		t.Errorf("1.02x -> 0.99x is noise at parity: unexpected violations %v", v)
	}
	v := gate(1.5, 0.99)
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "scalar parity") {
		t.Errorf("1.5x -> 0.99x: violations %v, want a scalar-parity report", v)
	}
}

// TestHostBenchGateHoldsTheFloor: a fresh sweep is held to the lowest
// ratio the baseline's sweeps read, not to their median.
func TestHostBenchGateHoldsTheFloor(t *testing.T) {
	baseline := HostBench{Schema: HostBenchSchema, Points: []HostBenchPoint{
		{Alg: "SHA-3", Method: "graycode", Kernel: "k", Impl: "avx512", Speedup: 10, SpeedupFloor: 8},
	}}
	fresh := func(speedup float64) HostBench {
		p := baseline.Points[0]
		p.Speedup, p.SpeedupFloor = speedup, speedup
		return HostBench{Schema: HostBenchSchema, Points: []HostBenchPoint{p}}
	}
	if v := HostBenchViolations(fresh(7), baseline, 0.15); v != nil {
		t.Errorf("7x against a floor of 8x: unexpected violations %v", v)
	}
	if v := HostBenchViolations(fresh(6.5), baseline, 0.15); len(v) != 1 || !strings.Contains(v[0], "floor 8.00x") {
		t.Errorf("6.5x against a floor of 8x: violations %v, want one floor report", v)
	}
}

// TestMergeHostSweeps: each merged row is the whole row of the sweep
// with the median speedup, so its columns agree, and its floor is the
// lowest speedup of any sweep.
func TestMergeHostSweeps(t *testing.T) {
	sweep := func(sc, bt float64) HostBench {
		return HostBench{Schema: HostBenchSchema, Sweeps: 1, Points: []HostBenchPoint{
			{Alg: "SHA-1", ScalarSeedsPerSec: sc, BatchedSeedsPerSec: bt, Speedup: bt / sc, SpeedupFloor: bt / sc},
			{Alg: "SHA-3", ScalarSeedsPerSec: bt, BatchedSeedsPerSec: sc, Speedup: sc / bt, SpeedupFloor: sc / bt},
		}}
	}
	got := mergeHostSweeps([]HostBench{sweep(1, 2), sweep(1, 1.5), sweep(2, 6)})
	if got.Sweeps != 3 || len(got.Points) != 2 {
		t.Fatalf("merged %d sweeps into %d points, want 3 sweeps and 2 points", got.Sweeps, len(got.Points))
	}
	for _, c := range []struct {
		p           HostBenchPoint
		sc, bt, flr float64
	}{
		{got.Points[0], 1, 2, 1.5},     // speedups 2, 1.5, 3
		{got.Points[1], 2, 1, 1.0 / 3}, // speedups 0.5, 0.67, 0.33
	} {
		if c.p.ScalarSeedsPerSec != c.sc || c.p.BatchedSeedsPerSec != c.bt || c.p.Speedup != c.bt/c.sc || c.p.SpeedupFloor != c.flr {
			t.Errorf("%s: merged %+v, want scalar %v, batched %v, floor %v", c.p.Alg, c.p, c.sc, c.bt, c.flr)
		}
	}
}
