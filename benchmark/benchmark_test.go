package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(sample, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestMedianOfSegments(t *testing.T) {
	segs := []float64{5, 1, 9, 3, 7}
	m := overSegments("ms", segs)
	if m.Value != 5 || m.Min != 1 || m.Max != 9 || m.Unit != "ms" {
		t.Errorf("overSegments = %+v, want median 5 in [1, 9] ms", m)
	}
	if !slices.Equal(segs, []float64{5, 1, 9, 3, 7}) {
		t.Errorf("overSegments reordered its input: %v", segs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestTrafficIsAFunctionOfTheSeed(t *testing.T) {
	mixed, _ := findWorkload("mixed_churn")
	stream := func(seed uint64) []request {
		tr := newTraffic(seed, 512, mixed.share)
		out := make([]request, 4000)
		for i := range out {
			out[i] = tr.at(i)
		}
		return out
	}
	a, b, other := stream(7), stream(7), stream(8)
	if !slices.Equal(a, b) {
		t.Error("equal seeds gave different request streams")
	}
	if slices.Equal(a, other) {
		t.Error("different seeds gave the same request stream")
	}
	var byNoise [3]int
	for i, r := range a {
		byNoise[r.noise]++
		if i >= 64 && slices.ContainsFunc(a[i-64:i], func(p request) bool { return p.client == r.client }) {
			t.Fatalf("request %d reuses a client of the 64 requests before it", i)
		}
	}
	for d, share := range mixed.share {
		if got := float64(byNoise[d]) / float64(len(a)); got < share-0.03 || got > share+0.03 {
			t.Errorf("share of d=%d is %.3f, want about %.3f", d, got, share)
		}
	}

	// A workload draws only the distances it names.
	for _, w := range workloads {
		tr := newTraffic(3, 512, w.share)
		for i := 0; i < 2000; i++ {
			if r := tr.at(i); w.share[r.noise] == 0 {
				t.Fatalf("%s drew d=%d, which has share 0", w.name, r.noise)
			}
		}
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, horizon := poissonSchedule(7, 800, 400)
	b, _ := poissonSchedule(7, 800, 400)
	otherSeed, _ := poissonSchedule(8, 800, 400)
	if !slices.Equal(a, b) {
		t.Error("equal seeds gave different schedules")
	}
	if slices.Equal(a, otherSeed) {
		t.Error("a different seed gave the same schedule")
	}
	if horizon.Seconds() != 2 {
		t.Errorf("800 arrivals at 400/s last %v, want 2s", horizon)
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= horizon {
		t.Errorf("schedule is not ascending inside [0, %v)", horizon)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	parent := ioSpan{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []ioSpan
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []ioSpan{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping", []ioSpan{{start: 110, end: 140}, {start: 130, end: 160}}, 50},
		{"nested", []ioSpan{{start: 110, end: 160}, {start: 120, end: 130}}, 50},
		{"clipped to the parent", []ioSpan{{start: 50, end: 120}, {start: 190, end: 300}}, 70},
		{"outside the parent", []ioSpan{{start: 10, end: 90}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCompareFindsBreachesAndCounterDrift(t *testing.T) {
	base := func() report {
		return report{Workloads: []workloadReport{{
			Name: "inline_durable", ExactCounts: true, Attempted: 1000,
			EndToEnd: map[string]metric{
				"setup_s": {Value: 1}, "auths_per_s": {Value: 1000}, "p50_ms": {Value: 2},
				"p90_ms": {Value: 3}, "cpu_ms_per_auth": {Value: 1},
			},
			PerLayer: map[string]metric{"durable.fsyncs_per_auth": {Value: 3}},
		}}}
	}
	if n := compareReports(new(bytes.Buffer), base(), base()); n != 0 {
		t.Errorf("a report against itself has %d findings", n)
	}
	// Changes are sized from the table's own bounds, whatever they are.
	bound := func(name string) float64 {
		for _, d := range endToEndDefs {
			if d.Name == name {
				return d.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	within := base()
	within.Workloads[0].EndToEnd["p50_ms"] = metric{Value: 2 * (1 + 0.9*bound("p50_ms"))}
	within.Workloads[0].EndToEnd["auths_per_s"] = metric{Value: 2000}
	if n := compareReports(new(bytes.Buffer), base(), within); n != 0 {
		t.Errorf("a change inside the bounds (and a gain) has %d findings", n)
	}
	worse := base()
	worse.Workloads[0].EndToEnd["auths_per_s"] = metric{Value: 1000 * (1 - 1.1*bound("auths_per_s"))}
	worse.Workloads[0].PerLayer["durable.fsyncs_per_auth"] = metric{Value: 2}
	worse.Workloads[0].Failed = 1
	var out bytes.Buffer
	if n := compareReports(&out, base(), worse); n != 3 {
		t.Errorf("throughput breach, counter drift and a new failure gave %d findings:\n%s", n, out.String())
	}
}

// TestContractFile holds the committed BENCHMARK.json to the program's own
// tables and to the limits the driver enforces.
func TestContractFile(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(benchmarkContract()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `benchmark -contract`; regenerate it")
	}

	c := benchmarkContract()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range c.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range c.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range c.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, n := range exactCounters {
		if !seen[n] {
			t.Errorf("exact counter %s is not a per-layer metric", n)
		}
	}
}

// TestSmoke runs every workload end to end at smoke size with the
// correctness gates on, and checks that each isolates the layers it says
// it isolates.
func TestSmoke(t *testing.T) {
	opt := options{
		seed: 5, seconds: 1, count: 30, clients: 128, maxd: 2, trace: true, quick: true,
		dataRoot: t.TempDir(), outDir: t.TempDir(), conc: 1,
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != segments*opt.count {
				t.Fatalf("correct %v, %d of %d failed %v: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Fails, rep.Problems)
			}
			for _, d := range endToEndDefs {
				if rep.EndToEnd[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, rep.EndToEnd[d.Name].Value)
				}
			}
			var names []string
			for _, d := range perLayerDefs {
				names = append(names, d.Name)
			}
			var got []string
			for n := range rep.PerLayer {
				got = append(got, n)
			}
			slices.Sort(names)
			slices.Sort(got)
			if !reflect.DeepEqual(names, got) {
				t.Errorf("per-layer metrics reported differ from those defined:\n got %v\nwant %v", got, names)
			}
			layer := func(n string) float64 { return rep.PerLayer[n].Value }
			wantInline := 1 - w.share[2]
			if w.share[2] == 0 || w.share[2] == 1 {
				if got := layer("core.inline_share"); got != wantInline {
					t.Errorf("core.inline_share = %v, want %v", got, wantInline)
				}
			}
			if fsyncs := layer("durable.fsyncs_per_auth"); w.durable == (fsyncs == 0) {
				t.Errorf("durable.fsyncs_per_auth = %v on a workload with durable = %v", fsyncs, w.durable)
			}
			if layer("replica.converged") != 1 || layer("client.dial_errors") != 0 || layer("netproto.errors") != 0 {
				t.Errorf("converged %v, dial errors %v, wire errors %v", layer("replica.converged"), layer("client.dial_errors"), layer("netproto.errors"))
			}
			if share := layer("budget.unattributed_share"); share < 0 || share >= 1 {
				t.Errorf("budget.unattributed_share = %v, want a share", share)
			}
			if _, err := os.Stat(rep.SpanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
