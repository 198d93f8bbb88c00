package core

import (
	"fmt"

	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/keccak"
)

// BatchKernel identifies a match-engine implementation. The batch
// kernel is a function of the hash algorithm: each algorithm has
// exactly one, the design that measured fastest on every iteration
// method (BENCH_host.json; DESIGN.md §11 keeps the numbers of the
// kernels that lost). There is nothing to select and nothing to set.
type BatchKernel int

const (
	// KernelScalar is the one-seed-at-a-time quick-reject loop - the
	// reference every batch kernel is tested and measured against
	// (ScalarMatcher forces it).
	KernelScalar BatchKernel = iota
	// KernelMulti4 is the 4-way interleaved multi-buffer scalar
	// compression, the SHA-1 batch kernel: it keeps the hardware adder
	// and hides the round-chain latency.
	KernelMulti4
	// KernelKeccakX8 is the 8-way lane-interleaved Keccak, the SHA-3
	// batch kernel: eight states stay in vector registers for all 24
	// rounds on AVX-512 hosts, and run as eight passes of an unrolled
	// scalar permutation elsewhere (keccak.SeedDigests8).
	KernelKeccakX8
)

// String returns the kernel's short name (the bench artifact key).
func (k BatchKernel) String() string {
	switch k {
	case KernelScalar:
		return "scalar"
	case KernelMulti4:
		return "multibuf4"
	case KernelKeccakX8:
		return "keccakx8"
	default:
		return fmt.Sprintf("BatchKernel(%d)", int(k))
	}
}

// DefaultKernel returns the batch kernel HashMatcher runs for alg.
func DefaultKernel(alg HashAlg) BatchKernel {
	switch alg {
	case SHA1:
		return KernelMulti4
	case SHA3:
		return KernelKeccakX8
	default:
		return KernelScalar
	}
}

// BatchKernels lists the batch kernels implemented for alg (the scalar
// reference is implicit and not listed).
func BatchKernels(alg HashAlg) []BatchKernel {
	if k := DefaultKernel(alg); k != KernelScalar {
		return []BatchKernel{k}
	}
	return nil
}

// DefaultKernelSpeedup returns the measured speedup of alg's batch
// kernel over the scalar reference on one iteration method: the speedup
// column of that row of the committed BENCH_host.json (a 1-worker
// exhaustive d=2 shell), for the implementation this process runs. Cost
// predictions divide the scalar per-seed host cost by it, so a search is
// priced at the throughput of the kernel that will actually run; the
// bench gate fails when a fresh measurement drifts more than its
// tolerance below the committed rows.
//
// It is one ratio per iterator because the rows differ by the fill,
// which no kernel speeds up: Algorithm 515's ~300 ns/seed holds the
// AVX-512 body to ~2x where the Gray iterator's ~10 ns lets it reach
// ~10x. The geometric mean of the four (5.25x) priced a Gray search ~2x
// high, outside TestPredictCostTracksTheKernelThatRuns's band. The SHA-3
// scalar reference, keccak.Sum256Seed, runs the same unrolled
// permutation as the portable SeedDigests8 body, so that body is at
// scalar parity (its rows read 1.02-1.06x) and is priced at exactly 1.
func DefaultKernelSpeedup(alg HashAlg, method iterseq.Method) float64 {
	if !method.Valid() {
		return 1
	}
	switch {
	case alg == SHA1:
		return sha1KernelSpeedups[method]
	case alg == SHA3 && keccak.SeedDigests8Impl() == keccak.ImplAVX512:
		return keccakX8AVX512Speedups[method]
	default:
		return 1
	}
}

// The speedup column of BENCH_host.json, by iteration method.
var (
	sha1KernelSpeedups = [...]float64{
		iterseq.GrayCode: 1.28, iterseq.Alg515: 1.14, iterseq.Gosper: 1.21, iterseq.Mifsud154: 1.25,
	}
	keccakX8AVX512Speedups = [...]float64{
		iterseq.GrayCode: 9.69, iterseq.Alg515: 2.23, iterseq.Gosper: 5.61, iterseq.Mifsud154: 6.27,
	}
)
