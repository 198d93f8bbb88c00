package cpu

import (
	"sync"
	"time"

	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/keccak"
	"rbcsalted/internal/sha1"
	"rbcsalted/internal/u256"
)

// HostCosts holds per-operation costs measured on the host running this
// process. Backend.PredictCost prices this host from them; the modelled
// devices (internal/device) consume only their *ratios* (SHA-1 vs SHA-3,
// Chase-class vs Gosper vs Algorithm 515), taking each device's absolute
// scale from the paper's anchors.
type HostCosts struct {
	// SHA1Ns and SHA3Ns are nanoseconds per fixed-padding 32-byte seed hash.
	SHA1Ns float64
	SHA3Ns float64
	// IterNs is nanoseconds per seed iteration (combination generation +
	// seed application) at d=5, indexed by iterseq.Method.
	IterNs map[iterseq.Method]float64
}

var (
	calibOnce sync.Once
	calib     HostCosts
)

// MeasureHostCosts measures and caches the host cost table. The first call
// takes on the order of a hundred milliseconds; subsequent calls are free.
//
// Robustness: the simulators consume these numbers as *ratios*, so the
// measurement must survive a loaded host (e.g. `go test ./...` running
// several test binaries on few cores). All operations are measured in
// interleaved rounds - one short window per op per round, minimum across
// rounds - so a contention epoch inflates every operation together
// instead of poisoning whichever op it happened to land on.
func MeasureHostCosts() HostCosts {
	calibOnce.Do(func() {
		type probe struct {
			op  func(n int)
			n   int
			ns  float64
			set func(v float64)
		}
		calib.IterNs = map[iterseq.Method]float64{}

		probes := []*probe{
			{
				op: func(n int) {
					var seed [32]byte
					for i := 0; i < n; i++ {
						seed[0] = byte(i)
						hashSink1 = sha1.SumSeed(&seed)
					}
				},
				set: func(v float64) { calib.SHA1Ns = v },
			},
			{
				op: func(n int) {
					var seed [32]byte
					for i := 0; i < n; i++ {
						seed[0] = byte(i)
						hashSink3 = keccak.Sum256Seed(&seed)
					}
				},
				set: func(v float64) { calib.SHA3Ns = v },
			},
		}
		base := u256.FromUint64(0x1234)
		for _, m := range iterseq.Methods() {
			method := m
			it, err := iterseq.New(method, 256, 5, 0, -1)
			if err != nil {
				panic(err)
			}
			c := make([]int, 5)
			probes = append(probes, &probe{
				op: func(n int) {
					for i := 0; i < n; i++ {
						if !it.Next(c) {
							it, _ = iterseq.New(method, 256, 5, 0, -1)
							it.Next(c)
						}
						seedSink = iterseq.ApplySeed(base, c)
					}
				},
				set: func(v float64) { calib.IterNs[method] = v },
			})
		}

		// Size each probe's batch to a ~2 ms window.
		for _, p := range probes {
			p.n = 1024
			p.ns = float64(1<<63 - 1)
			for {
				start := time.Now()
				p.op(p.n)
				if time.Since(start) >= 2*time.Millisecond {
					break
				}
				p.n *= 4
			}
		}
		// Interleaved rounds, minimum per probe.
		for round := 0; round < 7; round++ {
			for _, p := range probes {
				start := time.Now()
				p.op(p.n)
				if v := float64(time.Since(start).Nanoseconds()) / float64(p.n); v < p.ns {
					p.ns = v
				}
			}
		}
		for _, p := range probes {
			p.set(p.ns)
		}
	})
	return calib
}

var (
	hashSink1 [20]byte
	hashSink3 [32]byte
	seedSink  u256.Uint256
)
