package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample by the nearest-rank rule: the smallest value with at least
// q·n samples at or below it. An empty sample yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median returns the middle value of vs (mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metric is one reported number. End-to-end metrics are the median of
// the per-segment values, with the segment extremes beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	// Samples is the per-segment sample count behind a latency
	// percentile (0 where it does not apply).
	Samples int `json:"samples,omitempty"`
	// Segments are the per-segment values, in the order measured.
	Segments []float64 `json:"segments,omitempty"`
}

// overSegments folds per-segment values into a median-of-segments metric.
func overSegments(unit string, vs []float64) metric {
	m := metric{Value: median(vs), Unit: unit, Segments: vs}
	if len(vs) > 0 {
		m.Min, m.Max = vs[0], vs[0]
		for _, v := range vs[1:] {
			m.Min, m.Max = min(m.Min, v), max(m.Max, v)
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
