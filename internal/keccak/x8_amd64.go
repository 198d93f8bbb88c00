//go:build amd64

package keccak

//go:generate sh -c "go run ./x8gen > keccakx8_amd64.s"

// haveAVX512 gates the vector SeedDigests8: the instruction set (CPUID
// leaf 7) and the OS having enabled ZMM and opmask state saving
// (OSXSAVE + XCR0), detected once at start-up so the kernel never
// faults on a machine or OS that lacks either.
var haveAVX512 = cpuSupportsAVX512()

// HaveAVX512 reports the probe's result to the other package that
// carries AVX-512 assembly (bitslice), so there is one probe.
func HaveAVX512() bool { return haveAVX512 }

// seedDigests8AVX512 is SeedDigests8 over eight lane-interleaved states
// in ZMM registers. Generated into keccakx8_amd64.s by x8gen.
//
//go:noescape
func seedDigests8AVX512(msg, out *[4][8]uint64)

// cpuSupportsAVX512 reports AVX512F+VL plus OS ZMM/opmask state support,
// via raw CPUID and XGETBV (cpu_amd64.s): the standard library does not
// export its feature flags and this module takes no dependencies.
func cpuSupportsAVX512() bool
