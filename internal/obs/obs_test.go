package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	c.Add(2)
	if c.Value() != 8002 {
		t.Errorf("counter = %d, want 8002", c.Value())
	}
	g.Set(-5)
	g.Add(3)
	if g.Value() != -2 {
		t.Errorf("gauge = %d, want -2", g.Value())
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 556.5 {
		t.Errorf("sum = %v, want 556.5", s.Sum)
	}
	if s.Min != 0.5 || s.Max != 500 {
		t.Errorf("min/max = %v/%v, want 0.5/500", s.Min, s.Max)
	}
	// Bounds are inclusive upper edges: 0.5 and 1 land in <=1; 5 in
	// (1,10]; 50 in (10,100]; 500 overflows.
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	if m := s.Mean(); math.Abs(m-111.3) > 1e-9 {
		t.Errorf("mean = %v, want 111.3", m)
	}
}

// TestHistogramObserveN checks a weighted observation lands as n equal
// ones: bucket and total counts grow by n, the sum by n*v, min and max
// see v once, and n = 0 records nothing.
func TestHistogramObserveN(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	h.ObserveN(5, 16)
	h.ObserveN(0.5, 3)
	h.ObserveN(500, 2)
	h.ObserveN(50, 0)
	h.Observe(50)
	s := h.Snapshot()
	if s.Count != 22 {
		t.Fatalf("count = %d, want 22", s.Count)
	}
	if s.Sum != 16*5+3*0.5+2*500+50 {
		t.Errorf("sum = %v, want %v", s.Sum, 16*5+3*0.5+2*500+50)
	}
	if s.Min != 0.5 || s.Max != 500 {
		t.Errorf("min/max = %v/%v, want 0.5/500", s.Min, s.Max)
	}
	want := []uint64{3, 16, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow)
	}
	empty := NewHistogram([]float64{1})
	empty.ObserveN(7, 0)
	if s := empty.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Errorf("ObserveN(v, 0) recorded %+v", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	s := h.Snapshot()
	q := s.Quantile(0.5)
	if q < 1 || q > 2 {
		t.Errorf("p50 = %v, want inside (1,2]", q)
	}
	if got := s.Quantile(0); got < 1 || got > 2 {
		t.Errorf("p0 = %v, want inside containing bucket", got)
	}
	empty := NewHistogram([]float64{1}).Snapshot()
	if empty.Quantile(0.99) != 0 {
		t.Errorf("empty quantile = %v, want 0", empty.Quantile(0.99))
	}
}

func TestHistogramSnapshotEmpty(t *testing.T) {
	s := NewHistogram(DefLatencyBuckets).Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Errorf("empty snapshot not zero: %+v", s)
	}
	// An empty snapshot must be JSON-encodable (no ±Inf leftovers).
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal empty snapshot: %v", err)
	}
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs")
	c2 := r.Counter("reqs")
	if c1 != c2 {
		t.Fatal("Counter not get-or-create")
	}
	c1.Add(3)
	r.Gauge("open").Set(7)
	r.Histogram("lat", []float64{1}).Observe(0.5)
	r.Func("stats", func() any { return map[string]int{"x": 1} })

	snap := r.Snapshot()
	if snap["reqs"] != uint64(3) {
		t.Errorf("reqs = %v, want 3", snap["reqs"])
	}
	if snap["open"] != int64(7) {
		t.Errorf("open = %v, want 7", snap["open"])
	}
	if hs, ok := snap["lat"].(HistogramSnapshot); !ok || hs.Count != 1 {
		t.Errorf("lat = %#v, want histogram with one observation", snap["lat"])
	}
	if snap["stats"] == nil {
		t.Error("func metric missing from snapshot")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind collision")
		}
	}()
	r.Gauge("x")
}

func TestRingKeepsMostRecent(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 10; i++ {
		Emit(ring, TraceEvent{Kind: KindShell, Depth: i})
	}
	got := ring.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i, ev := range got {
		if ev.Depth != 6+i {
			t.Errorf("event %d depth = %d, want %d", i, ev.Depth, 6+i)
		}
		if ev.Time.IsZero() {
			t.Error("Emit did not stamp Time")
		}
	}
	if ring.Total() != 10 {
		t.Errorf("total = %d, want 10", ring.Total())
	}
}

func TestEmitNilSinkIsNoop(t *testing.T) {
	Emit(nil, TraceEvent{Kind: KindDone}) // must not panic
	var m MultiSink
	m.Emit(TraceEvent{})
	MultiSink{nil, NewRing(1)}.Emit(TraceEvent{Kind: KindDone})
}

func TestHandlerMetricsTraceHealthz(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(2)
	reg.Func("now", func() any { return "fixed" })
	ring := NewRing(8)
	Emit(ring, TraceEvent{Kind: KindEnqueue, Search: 1})
	srv := httptest.NewServer(Handler(reg, ring))
	defer srv.Close()

	var metrics map[string]any
	getJSON(t, srv.URL+"/metrics", &metrics)
	if metrics["hits"] != float64(2) {
		t.Errorf("/metrics hits = %v, want 2", metrics["hits"])
	}
	if metrics["now"] != "fixed" {
		t.Errorf("/metrics now = %v, want fixed", metrics["now"])
	}

	var trace struct {
		Total  uint64       `json:"total"`
		Events []TraceEvent `json:"events"`
	}
	getJSON(t, srv.URL+"/trace", &trace)
	if trace.Total != 1 || len(trace.Events) != 1 || trace.Events[0].Kind != KindEnqueue {
		t.Errorf("/trace = %+v, want the one enqueue event", trace)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestHandlerTraceWithoutRing404s(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/trace without ring = %d, want 404", resp.StatusCode)
	}
}

func TestServeListensAndStops(t *testing.T) {
	reg := NewRegistry()
	ln, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var snap map[string]any
	getJSON(t, fmt.Sprintf("http://%s/metrics", ln.Addr()), &snap)
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
