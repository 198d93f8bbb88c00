package core

import (
	"sync/atomic"

	"rbcsalted/internal/obs"
)

// Per-batch phase observability of the batched host hot path. The
// fill-vs-pack split of a seed's cost (DESIGN.md §11) must be visible
// live, in /metrics, not only in bench runs. The hooks are
// process-global (the hot loops have no registry plumbing, by design: a
// search runs identically with or without a server around it) and cost
// one pointer load per worker when disabled.
//
// Enabled, they are sampled: the host loop times the fill and pack of
// the first batch of each poll interval (CheckInterval seeds, 16 batches
// by default) and records that one sample once per batch the interval
// ran (obs.Histogram.ObserveN). Two clock reads and two histogram
// updates per interval instead of four and two per batch: Count is the
// exact number of batches and Sum an unbiased estimate of the total,
// while the bucket shape is that of the sampled batches.

// HostBatchMetrics carries the per-batch phase histograms of the batched
// host path. Fill is the time one batch spends draining the iterator
// (MaskIter.FillMasks: successor steps); Pack is the time MatchMasks
// spends marshalling candidates into the kernel's layout before any
// compression runs (base^mask materialization: lane-interleaved
// messages for SHA-3, serialized seeds for SHA-1). Both are in
// nanoseconds per batch. Pack is recorded only for matchers that time
// their pack phase (HashMatcher does).
type HostBatchMetrics struct {
	Fill *obs.Histogram // host_batch_fill_ns
	Pack *obs.Histogram // host_batch_pack_ns
}

// Register builds the canonical histograms on reg and returns them as a
// HostBatchMetrics ready for SetHostBatchMetrics.
func RegisterHostBatchMetrics(reg *obs.Registry) *HostBatchMetrics {
	return &HostBatchMetrics{
		Fill: reg.Histogram("host_batch_fill_ns", obs.DefBatchNsBuckets),
		Pack: reg.Histogram("host_batch_pack_ns", obs.DefBatchNsBuckets),
	}
}

// observe records one poll interval: the fill and pack times sampled
// from its first batch, once for each of its batches. packTimed is
// false when the matcher does not time its pack phase. A nil h (hooks
// disabled) records nothing.
func (h *HostBatchMetrics) observe(fillNs, packNs int64, batches int, packTimed bool) {
	if h == nil || batches == 0 {
		return
	}
	h.Fill.ObserveN(float64(fillNs), uint64(batches))
	if packTimed {
		h.Pack.ObserveN(float64(packNs), uint64(batches))
	}
}

var hostBatchMetrics atomic.Pointer[HostBatchMetrics]

// SetHostBatchMetrics installs the process-wide batch-phase histograms
// (nil disables observation) and returns the previous value so callers
// can restore it. Installing is last-writer-wins: embedding several
// server nodes in one process points the hooks at the most recent
// node's registry, which is the one a debug listener is serving.
func SetHostBatchMetrics(m *HostBatchMetrics) *HostBatchMetrics {
	return hostBatchMetrics.Swap(m)
}

// loadHostBatchMetrics returns the installed hooks, nil when disabled.
// Hot loops load once per worker: installation happens at server (or
// bench capture) setup, before searches run.
func loadHostBatchMetrics() *HostBatchMetrics {
	return hostBatchMetrics.Load()
}
