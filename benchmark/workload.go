package main

import (
	"math/rand/v2"
	"slices"
	"time"

	"rbcsalted/internal/core"
)

// segments is the number of measured segments per workload; every
// end-to-end metric is the median of the per-segment values.
const segments = 5

// workload is one traffic mix against one server shape. The names, the
// mixes and the reasons are fixed by the benchmark's definition (see
// README.md); BENCHMARK.json lists the same names.
type workload struct {
	name string
	why  string
	// durable runs the primary on a data directory with fsync per record
	// and one follower node replicating every shard; otherwise the node
	// is memory-only and stands alone.
	durable bool
	// share[d] is the probability that a request's response lies at
	// Hamming distance d from the enrolled image. Requests at d ≤ 1 are
	// interactive (served on the inline path), d = 2 is batch class.
	share [3]float64
	// openRate > 0 adds, on a traced run, one open-loop pass after the
	// segments: Poisson arrivals at openRate per second, latency timed from
	// each request's due time. The measured segments are always a closed
	// loop (README.md, "Why the measured loop is closed").
	openRate float64
	// churn runs enrol/deprovision traffic, and one snapshot at the start
	// of every segment, next to the authentications.
	churn bool
	// warmup and traced are request counts: the discarded warm-up before
	// the segments (also the rate calibration), and the traced pass.
	warmup, traced int
}

var workloads = []workload{
	{
		name:    "inline_durable",
		why:     "70% d=0 / 30% d=1 on a durable, replicated node: three WAL append+fsyncs and replication dominate, search is under 5% of a request",
		durable: true, share: [3]float64{0.70, 0.30, 0},
		warmup: 1500, traced: 1000,
	},
	{
		name:   "inline_mem",
		why:    "same traffic with no data dir and no follower: dial/accept, frames, image unseal, session table, inline shell and keygen are the whole cost; a WAL change must not move it",
		share:  [3]float64{0.70, 0.30, 0},
		warmup: 8000, traced: 1000,
	},
	{
		name:    "tail_d2",
		why:     "100% d=2 batch class on the durable node: every request escalates through sched to cpu.Backend, ~87% of CPU is the match kernel; kernel and dispatch work shows here only",
		durable: true, share: [3]float64{0, 0, 1},
		warmup: 300, traced: 150,
	},
	{
		name:    "mixed_churn",
		why:     "66.5% d=0, 28.5% d=1, 5% d=2 in one stream on the durable node, beside enrol/deprovision churn and a snapshot per segment: image records and compaction beside session records, searches beside inline",
		durable: true, share: [3]float64{0.665, 0.285, 0.05},
		openRate: 200, churn: true,
		warmup: 1200, traced: 1000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated authentication: which enrolled client answers
// and how many bits of its response the generator flips.
type request struct {
	client int
	noise  int
}

func (r request) class() core.QoSClass {
	if r.noise >= 2 {
		return core.ClassBatch
	}
	return core.ClassInteractive
}

// traffic is the seeded request stream of one workload run: request i
// is a pure function of (seed, i), so equal seeds give equal inputs no
// matter how the run is cut into warm-up and segments.
type traffic struct {
	seed  uint64
	order []int // seeded permutation of the population
	share [3]float64
}

func newTraffic(seed uint64, clients int, share [3]float64) *traffic {
	rng := rand.New(rand.NewPCG(seed, 0x7261666669633a31))
	return &traffic{seed: seed, order: rng.Perm(clients), share: share}
}

// at returns request i. Consecutive requests use distinct clients (the
// permutation is walked cyclically), which is what keeps one client to
// one request in flight at any concurrency below the population size.
func (t *traffic) at(i int) request {
	u := float64(mix64(t.seed^uint64(i)*0x9E3779B97F4A7C15)>>11) / (1 << 53)
	// The last distance with a non-zero share takes the remainder, so a
	// rounding gap in the cumulative sum cannot invent a distance the
	// workload does not have.
	noise, acc := 0, 0.0
	for d, s := range t.share {
		if s == 0 {
			continue
		}
		noise, acc = d, acc+s
		if u < acc {
			break
		}
	}
	return request{client: t.order[i%len(t.order)], noise: noise}
}

// mix64 is the splitmix64 finaliser: a stateless hash from a request
// index to its random draw.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// poissonSchedule returns the due times of the open-loop pass's n
// arrivals, as ascending offsets from its start. Given their number, the
// arrivals of a Poisson process in an interval are independent uniform
// draws from it, so the schedule is n sorted uniforms over the n/rate
// horizon: Poisson gaps, and the pass lasts exactly its horizon.
func poissonSchedule(seed uint64, n int, rate float64) (due []time.Duration, horizon time.Duration) {
	rng := rand.New(rand.NewPCG(seed, 0x706f6973736f6e00))
	horizon = time.Duration(float64(n) / rate * float64(time.Second))
	due = make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(horizon))
	}
	slices.Sort(due)
	return due, horizon
}
