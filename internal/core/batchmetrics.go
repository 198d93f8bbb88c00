package core

import (
	"sync/atomic"

	"rbcsalted/internal/obs"
)

// Per-batch phase observability of the batched host hot path. Beside
// a register-resident compression, iterator fill is a quarter of a
// SHA-3 seed's cost (DESIGN.md §11) — so the fill-vs-pack split must be
// visible live, in /metrics, not only in bench runs. The hooks are
// process-global (the hot loops have no
// registry plumbing, by design: a search runs identically with or
// without a server around it) and cost one pointer load and branch per
// *batch* when disabled.

// HostBatchMetrics carries the per-batch phase histograms of the batched
// host path. Fill is the time one batch spends draining the iterator
// (FillMasks: successor steps); Pack is the time MatchMasks spends
// marshalling candidates into the kernel's layout before any
// compression runs (base^mask materialization: lane-interleaved
// messages for SHA-3, serialized seeds for SHA-1). Both are observed in
// nanoseconds per batch.
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
