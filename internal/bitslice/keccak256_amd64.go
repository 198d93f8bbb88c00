//go:build amd64

package bitslice

import "rbcsalted/internal/keccak"

// haveAVX2 and haveAVX512 gate the vector forms of the wide Keccak
// round. Detected once at startup: the instruction set (CPUID leaf 7)
// and the OS having enabled the matching register state saving
// (OSXSAVE + XCR0), so the kernel never faults on a machine or OS that
// lacks either. The AVX-512 probe is keccak's.
var (
	haveAVX2   = cpuSupportsAVX2()
	haveAVX512 = keccak.HaveAVX512()
)

// keccakRound256AVX2 is one fused Keccak round over the wide state:
// theta parity and D, then the rho+pi+chi gather into nxt with D xored
// into each gathered source on the fly (the separate theta-apply pass
// over the 50KB state is folded away). Same external contract as
// keccakRound256Go - nxt is fully written, cur is scratch afterwards -
// with each 4-word bit column processed as one YMM register.
// Implemented in keccak256_amd64.s; the rho/pi source offsets are baked
// into the code (the permutation is a compile-time constant).
//
//go:noescape
func keccakRound256AVX2(nxt, cur *KeccakState256, c, d *[5]Slice256)

// keccakRound256AVX512 is the same round with VPTERNLOGQ (AVX-512F+VL,
// still on 256-bit registers for the gather) doing each 3-input step in
// one ALU op, and a parity-carrying contract: c must hold the column
// parities of cur on entry (prime with keccakParity256AVX512) and holds
// the parities of nxt on return - the next round's theta parity pass is
// folded into this round's chi stores. See keccak256_avx512_amd64.s.
//
//go:noescape
func keccakRound256AVX512(nxt, cur *KeccakState256, c, d *[5]Slice256)

// keccakParity256AVX512 computes the column parities of cur into c,
// priming the parity-carrying round above for its first round.
//
//go:noescape
func keccakParity256AVX512(c *[5]Slice256, cur *KeccakState256)

// cpuSupportsAVX2 reports AVX2 plus OS YMM support, via raw CPUID and
// XGETBV (implemented in keccak256_amd64.s): the standard library does
// not export its feature flags and this package takes no dependencies.
func cpuSupportsAVX2() bool
