package rbc

// One testing.B benchmark per paper table/figure, plus primitive
// throughput benches. Each benchmark iteration performs one representative
// unit of the experiment; `go test -bench=. -benchmem` therefore exercises
// every code path the evaluation section depends on. cmd/rbc-bench
// produces the full formatted tables.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
	"rbcsalted/internal/exper"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

func scenario(seed uint64, d int) (base, client Seed) {
	r := rand.New(rand.NewPCG(seed, 17))
	base = u256.New(r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
	client = puf.InjectNoise(base, base, d, r)
	return base, client
}

func searchOnce(b *testing.B, backend Backend, alg HashAlg, maxD int, exhaustive bool) {
	b.Helper()
	base, client := scenario(uint64(b.N)%97+1, maxD)
	oracle := client
	res, err := backend.Search(context.Background(), Task{
		Base:        base,
		Target:      HashSeed(alg, client),
		MaxDistance: maxD,
		Exhaustive:  exhaustive,
		Oracle:      &oracle,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Found {
		b.Fatal("search lost the seed")
	}
}

// BenchmarkTable1 regenerates the analytic search-space sizes.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for d := 1; d <= 5; d++ {
			_ = combin.ExhaustiveSeeds(256, d)
			_ = combin.AverageSeeds(256, d)
		}
	}
}

// BenchmarkFigure3 prices one full (n, b) heatmap from the GPU model.
func BenchmarkFigure3(b *testing.B) {
	m := device.NewA100Kernel(device.MeasureHostCosts())
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 10, 100, 1000, 10000} {
			for _, blk := range []int{32, 128, 512, 1024} {
				_ = m.ExhaustiveD5SecondsAt(SHA3, IterGray,
					device.KernelParams{SeedsPerThread: n, ThreadsPerBlock: blk}, true, 1)
			}
		}
	}
}

// BenchmarkTable4 runs one modelled GPU search per iterator.
func BenchmarkTable4(b *testing.B) {
	for _, method := range []IterMethod{IterGray, IterGosper, IterAlg515} {
		b.Run(method.String(), func(b *testing.B) {
			backend := mustBackend(b, BackendSpec{Kind: BackendGPU, Alg: SHA3})
			base, client := scenario(3, 5)
			oracle := client
			for i := 0; i < b.N; i++ {
				res, err := backend.Search(context.Background(), Task{
					Base:        base,
					Target:      HashSeed(SHA3, client),
					MaxDistance: 5,
					Method:      method,
					Exhaustive:  true,
					Oracle:      &oracle,
				})
				if err != nil || !res.Found {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5 runs one end-to-end-scale search per platform and hash.
func BenchmarkTable5(b *testing.B) {
	cases := []struct {
		name    string
		backend Backend
		alg     HashAlg
	}{
		{"GPU-SHA1", mustBackend(b, BackendSpec{Kind: BackendGPU, Alg: SHA1}), SHA1},
		{"GPU-SHA3", mustBackend(b, BackendSpec{Kind: BackendGPU, Alg: SHA3}), SHA3},
		{"APU-SHA1", mustBackend(b, BackendSpec{Kind: BackendAPU, Alg: SHA1}), SHA1},
		{"APU-SHA3", mustBackend(b, BackendSpec{Kind: BackendAPU, Alg: SHA3}), SHA3},
		{"CPUmodel-SHA1", device.NewEPYC(SHA1, device.MeasureHostCosts()), SHA1},
		{"CPUmodel-SHA3", device.NewEPYC(SHA3, device.MeasureHostCosts()), SHA3},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				searchOnce(b, c.backend, c.alg, 5, false)
			}
		})
	}
}

// BenchmarkTable6 runs the energy-metered exhaustive searches.
func BenchmarkTable6(b *testing.B) {
	for _, alg := range []HashAlg{SHA1, SHA3} {
		b.Run(alg.String(), func(b *testing.B) {
			gpu := mustBackend(b, BackendSpec{Kind: BackendGPU, Alg: alg})
			apu := mustBackend(b, BackendSpec{Kind: BackendAPU, Alg: alg})
			for i := 0; i < b.N; i++ {
				searchOnce(b, gpu, alg, 5, true)
				searchOnce(b, apu, alg, 5, true)
			}
		})
	}
}

// BenchmarkFigure4 runs the 3-GPU early-exit search (the figure's most
// overhead-sensitive point).
func BenchmarkFigure4(b *testing.B) {
	backend := mustBackend(b, BackendSpec{Kind: BackendGPU, Alg: SHA3, Devices: 3})
	for i := 0; i < b.N; i++ {
		searchOnce(b, backend, SHA3, 5, false)
	}
}

// BenchmarkTable7 prices one candidate evaluation for each engine: the
// per-seed operation whose cost ratio is the paper's core argument.
func BenchmarkTable7(b *testing.B) {
	var seed [32]byte
	b.Run("salted-sha3-hash", func(b *testing.B) {
		s := u256.FromUint64(1)
		for i := 0; i < b.N; i++ {
			digestSink = HashSeed(SHA3, s)
		}
	})
	b.Run("aware-aes128-keygen", func(b *testing.B) {
		g := &AESKeyGenerator{}
		for i := 0; i < b.N; i++ {
			seed[0] = byte(i)
			keySink = g.PublicKey(seed)
		}
	})
	b.Run("aware-lightsaber-keygen", func(b *testing.B) {
		var g SaberKeyGenerator
		for i := 0; i < b.N; i++ {
			seed[0] = byte(i)
			keySink = g.PublicKey(seed)
		}
	})
	b.Run("aware-dilithium3-keygen", func(b *testing.B) {
		var g DilithiumKeyGenerator
		for i := 0; i < b.N; i++ {
			seed[0] = byte(i)
			keySink = g.PublicKey(seed)
		}
	})
}

// BenchmarkCPUScaling measures the real CPU backend on this host (the
// §4.3 scenario at a host-feasible radius).
func BenchmarkCPUScaling(b *testing.B) {
	backend := &CPUBackend{Alg: SHA3}
	base, client := scenario(11, 2)
	for i := 0; i < b.N; i++ {
		res, err := backend.Search(context.Background(), Task{
			Base:        base,
			Target:      HashSeed(SHA3, client),
			MaxDistance: 2,
			Exhaustive:  true,
		})
		if err != nil || !res.Found {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlagInterval exercises the §4.4 sweep through the real CPU
// backend (check interval 1 vs 64).
func BenchmarkFlagInterval(b *testing.B) {
	for _, interval := range []int{1, 64} {
		b.Run(map[int]string{1: "every1", 64: "every64"}[interval], func(b *testing.B) {
			backend := &CPUBackend{Alg: SHA1}
			base, client := scenario(13, 2)
			for i := 0; i < b.N; i++ {
				res, err := backend.Search(context.Background(), Task{
					Base:          base,
					Target:        HashSeed(SHA1, client),
					MaxDistance:   2,
					CheckInterval: interval,
					Exhaustive:    true,
				})
				if err != nil || !res.Found {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSharedMem prices the §3.2.3 ablation point.
func BenchmarkSharedMem(b *testing.B) {
	m := device.NewA100Kernel(device.MeasureHostCosts())
	for i := 0; i < b.N; i++ {
		_ = m.ShellSeconds(8809549056, SHA1, IterGray, device.DefaultKernelParams, true, 1)
		_ = m.ShellSeconds(8809549056, SHA1, IterGray, device.DefaultKernelParams, false, 1)
	}
}

// BenchmarkIterators measures the real per-seed cost of each seed
// iterator (the measured input to Table 4).
func BenchmarkIterators(b *testing.B) {
	for _, method := range []IterMethod{IterGray, IterGosper, IterAlg515, IterMifsud} {
		b.Run(method.String(), func(b *testing.B) {
			it, err := iterseq.New(method, 256, 5, 0, -1)
			if err != nil {
				b.Fatal(err)
			}
			c := make([]int, 5)
			for i := 0; i < b.N; i++ {
				if !it.Next(c) {
					it, _ = iterseq.New(method, 256, 5, 0, -1)
					it.Next(c)
				}
			}
		})
	}
}

// BenchmarkHashes measures the fixed-padding seed hashes, the innermost
// loop of every search.
func BenchmarkHashes(b *testing.B) {
	s := u256.FromUint64(7)
	b.Run("SHA1-seed", func(b *testing.B) {
		b.SetBytes(32)
		for i := 0; i < b.N; i++ {
			digestSink = HashSeed(SHA1, s)
		}
	})
	b.Run("SHA3-seed", func(b *testing.B) {
		b.SetBytes(32)
		for i := 0; i < b.N; i++ {
			digestSink = HashSeed(SHA3, s)
		}
	})
}

// BenchmarkExperimentHarness regenerates the cheapest full table to keep
// the harness itself under benchmark.
func BenchmarkExperimentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tableSink = exper.Table1()
	}
}

// BenchmarkStoreParallel contends 64 goroutines over the CA's mutable
// stores — the authentication hot path is 1 read + 1 write per request —
// comparing the seed's single-mutex layout (1 shard) against the
// striped-lock layout (16 shards).
func BenchmarkStoreParallel(b *testing.B) {
	const goroutines = 64
	parallelism := max(1, goroutines/runtime.GOMAXPROCS(0))
	ids := make([]ClientID, 256)
	for i := range ids {
		ids[i] = ClientID(fmt.Sprintf("client-%03d", i))
	}
	sealed := make([]byte, 64)

	for _, shards := range []int{1, 16} {
		layout := map[int]string{1: "mutex", 16: "sharded16"}[shards]
		b.Run("ra-"+layout, func(b *testing.B) {
			ra := core.NewRAShards(shards)
			for _, id := range ids {
				if err := ra.Update(id, sealed); err != nil {
					b.Fatal(err)
				}
			}
			var n atomic.Uint64
			b.SetParallelism(parallelism)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := n.Add(1)
					id := ids[i%uint64(len(ids))]
					if i%2 == 0 {
						if err := ra.Update(id, sealed); err != nil {
							b.Fatal(err)
						}
					} else if _, ok := ra.PublicKey(id); !ok {
						b.Fatal("key lost")
					}
				}
			})
		})
		b.Run("images-"+layout, func(b *testing.B) {
			store, err := core.NewImageStoreShards([32]byte{1}, shards)
			if err != nil {
				b.Fatal(err)
			}
			for _, id := range ids {
				store.PutSealed(id, sealed)
			}
			var n atomic.Uint64
			b.SetParallelism(parallelism)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := n.Add(1)
					id := ids[i%uint64(len(ids))]
					if i%2 == 0 {
						store.PutSealed(id, sealed)
					} else if !store.Has(id) {
						b.Fatal("image lost")
					}
				}
			})
		})
	}
}

var (
	digestSink Digest
	keySink    []byte
	tableSink  *exper.Table
)
