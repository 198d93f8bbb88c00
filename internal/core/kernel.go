package core

import (
	"fmt"

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
// kernel over the scalar reference: the geometric mean of its four
// per-iterator ratios in the committed BENCH_host.json (1-worker
// exhaustive d=2 shells), for the implementation this process runs -
// the SHA-3 kernel's two bodies are a factor of five apart. Cost
// predictions divide the scalar per-seed host cost by it, so a search
// is priced at the throughput of the kernel that will actually run; the
// bench gate fails when a fresh measurement drifts more than its
// tolerance from the committed rows.
func DefaultKernelSpeedup(alg HashAlg) float64 {
	switch alg {
	case SHA1:
		return 1.29
	case SHA3:
		if keccak.SeedDigests8Impl() == keccak.ImplAVX512 {
			return 34.9
		}
		return 7.8
	default:
		return 1
	}
}
