// Package obs is the serving stack's observability layer: dependency-free
// atomic counters, gauges and fixed-bucket histograms with JSON snapshot
// export, plus per-search trace events (trace.go) and a debug HTTP
// handler (debug.go) exposing /metrics and net/http/pprof.
//
// The paper's contribution is measured throughput and latency (Tables
// 2-5); this package makes the same numbers visible from a live server:
// queue waits, search service times, shed load and per-status protocol
// errors, without any third-party dependency. Everything is safe for
// concurrent use and cheap enough to leave enabled in production — a
// counter increment is one atomic add, a histogram observation is two
// atomic adds plus a branch-free bucket lookup.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. connections open,
// searches in flight).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets is the default histogram geometry for latencies in
// seconds: roughly exponential from 100 µs to 100 s, wide enough for
// both queue waits and paper-scale (~20 s threshold) search times.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// DefBatchNsBuckets is the histogram geometry for per-batch hot-path
// phase timings in nanoseconds: roughly exponential from 250 ns to
// 10 ms. A 64-candidate fill or pack phase takes a few hundred
// nanoseconds on the reference host (the Gray fill and the pack each
// ~300-450) and Algorithm 515's fill ~16 µs; the wide range keeps the
// buckets meaningful up to batches that lose their CPU mid-phase.
var DefBatchNsBuckets = []float64{
	250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 10_000_000,
}

// Histogram is a fixed-bucket histogram of float64 observations. Bounds
// are inclusive upper bucket edges in ascending order; observations
// above the last bound land in an overflow bucket. All methods are safe
// for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram with the given ascending bucket
// bounds. It panics on an empty or unsorted bound list (a programming
// error, not an operational condition).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.MaxFloat64))
	h.max.Store(math.Float64bits(-math.MaxFloat64))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records v as n observations: one sampled measurement that
// stands for n events, so Count stays the number of events and Sum
// their estimated total. n = 0 records nothing.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(n)
	h.count.Add(n)
	total := v * float64(n)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+total)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram, shaped for
// JSON export (no ±Inf values).
type HistogramSnapshot struct {
	// Count and Sum aggregate all observations; Min/Max are zero when
	// Count is zero.
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Bounds are the inclusive upper bucket edges; Counts[i] is the
	// number of observations in (Bounds[i-1], Bounds[i]]. Overflow
	// counts observations above the last bound.
	Bounds   []float64 `json:"bounds"`
	Counts   []uint64  `json:"counts"`
	Overflow uint64    `json:"overflow"`
}

// Snapshot copies the histogram's current state. Concurrent Observe
// calls may be torn across Count/Sum/bucket totals by at most the
// in-flight observations; each individual field is internally
// consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)),
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
	}
	for i := range s.Counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Overflow = h.counts[len(h.bounds)].Load()
	return s
}

// Mean returns the snapshot's average observation, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the containing bucket; overflow-bucket hits
// return Max. It returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			within := rank - float64(cum-c)
			return lo + (hi-lo)*within/float64(c)
		}
	}
	return s.Max
}

// Registry is a named collection of metrics. Metric constructors are
// get-or-create: asking twice for the same name returns the same metric,
// so independently wired components can share counters. Names must not
// collide across metric kinds.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() any),
	}
}

func (r *Registry) taken(name string) bool {
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.hists[name]
	_, f := r.funcs[name]
	return c || g || h || f
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if r.taken(name) {
		panic(fmt.Sprintf("obs: metric %q already registered with another kind", name))
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if r.taken(name) {
		panic(fmt.Sprintf("obs: metric %q already registered with another kind", name))
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with bounds on
// first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if r.taken(name) {
		panic(fmt.Sprintf("obs: metric %q already registered with another kind", name))
	}
	h := NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Func registers a callback evaluated at snapshot time — the expvar.Func
// idiom, used to re-export external state (e.g. scheduler Stats) through
// /metrics without copying it on every update. The callback must return
// a JSON-marshalable value and be safe for concurrent use.
func (r *Registry) Func(name string, f func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(name) {
		panic(fmt.Sprintf("obs: metric %q already registered", name))
	}
	r.funcs[name] = f
}

// Snapshot evaluates every metric: counters as uint64, gauges as int64,
// histograms as HistogramSnapshot, funcs as their return value.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	funcs := make(map[string]func() any, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	r.mu.RUnlock()

	// Evaluate outside the lock: Func callbacks may take their own locks
	// (e.g. scheduler stats) and must not nest under the registry's.
	out := make(map[string]any, len(counters)+len(gauges)+len(hists)+len(funcs))
	for n, c := range counters {
		out[n] = c.Value()
	}
	for n, g := range gauges {
		out[n] = g.Value()
	}
	for n, h := range hists {
		out[n] = h.Snapshot()
	}
	for n, f := range funcs {
		out[n] = f()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with sorted keys (the
// /metrics wire format).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
