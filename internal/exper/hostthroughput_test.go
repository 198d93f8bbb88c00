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
		return HostBenchPoint{Alg: alg, Method: "graycode", Kernel: "k", Impl: impl, Speedup: speedup}
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
