package obs

import (
	"sort"
	"sync"
	"time"
)

// The hedge trigger the scheduler derives from search service times: the
// 95th percentile of the last 256 samples, once 16 have been seen. A
// search slower than 95 % of recent ones is likely a straggler; fewer
// than 16 samples say too little to tell.
const (
	hedgeWindow     = 256
	hedgeQuantile   = 0.95
	hedgeMinSamples = 16
)

// HedgeWindow is a sliding window of recent latencies with the
// percentile read hedged dispatch triggers on. The zero value is ready
// and safe for concurrent use.
type HedgeWindow struct {
	mu      sync.Mutex
	samples [hedgeWindow]float64
	count   int
	next    int
}

// Observe adds one latency, evicting the oldest once the window is full.
func (w *HedgeWindow) Observe(d time.Duration) {
	w.mu.Lock()
	if w.count < hedgeWindow {
		w.samples[w.count] = d.Seconds()
		w.count++
	} else {
		w.samples[w.next] = d.Seconds()
		w.next = (w.next + 1) % hedgeWindow
	}
	w.mu.Unlock()
}

// Delay returns the hedge trigger: the window's 95th percentile, floored
// at floor so fast paths don't hedge everything, or 0 — do not hedge
// yet — while fewer than 16 samples have been observed.
func (w *HedgeWindow) Delay(floor time.Duration) time.Duration {
	w.mu.Lock()
	n := w.count
	if n < hedgeMinSamples {
		w.mu.Unlock()
		return 0
	}
	samples := make([]float64, n)
	copy(samples, w.samples[:n])
	w.mu.Unlock()

	sort.Float64s(samples)
	idx := min(int(hedgeQuantile*float64(n)), n-1)
	return max(time.Duration(samples[idx]*float64(time.Second)), floor)
}
