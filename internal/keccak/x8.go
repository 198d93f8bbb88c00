package keccak

import "math/bits"

// The host search's SHA-3 batch primitive. A CPU has 64-bit rotates,
// three-input logic and (with AVX-512) 32 vector registers, so the
// fastest layout keeps whole Keccak states where the ALUs are: eight
// states lane-interleaved in 25 ZMM registers, memory touched only to
// load four message lanes and store four digest lanes (DESIGN.md §11).
// Hosts without AVX-512 run the same contract as eight passes of an
// unrolled scalar permutation.

// SeedDigests8 computes eight fixed-padding SHA3-256 seed digests, the
// batch form of Sum256Seed: msg[l][i] is message lane l of seed i
// (bytes 8l..8l+7 of the seed, little-endian) and out[l][i] receives
// lane l of its digest in the same encoding.
func SeedDigests8(msg, out *[4][8]uint64) {
	if useAVX512 {
		seedDigests8AVX512(msg, out)
	} else {
		seedDigests8Go(msg, out)
	}
}

// useAVX512 selects the SeedDigests8 body. It is fixed at start-up from
// the CPUID/XGETBV probe; only ForceSeedDigests8Impl changes it.
var useAVX512 = haveAVX512

// The SeedDigests8 implementations, by the names bench artifacts carry.
const (
	ImplAVX512   = "avx512"
	ImplPortable = "portable"
)

// SeedDigests8Impl names the implementation SeedDigests8 runs.
func SeedDigests8Impl() string {
	if useAVX512 {
		return ImplAVX512
	}
	return ImplPortable
}

// SeedDigests8Impls lists every implementation this CPU can run, the
// start-up choice first.
func SeedDigests8Impls() []string {
	if haveAVX512 {
		return []string{ImplAVX512, ImplPortable}
	}
	return []string{ImplPortable}
}

// ForceSeedDigests8Impl makes SeedDigests8 run impl (one of
// SeedDigests8Impls) and returns the function that undoes it. It exists
// so tests and the host bench can exercise the portable body on an
// AVX-512 machine; it must not be called while a search is running.
func ForceSeedDigests8Impl(impl string) (restore func()) {
	prev := useAVX512
	switch {
	case impl == ImplAVX512 && haveAVX512:
		useAVX512 = true
	case impl == ImplPortable:
		useAVX512 = false
	default:
		panic("keccak: cannot run SeedDigests8 implementation " + impl)
	}
	return func() { useAVX512 = prev }
}

// seedDigests8Go is the portable SeedDigests8.
func seedDigests8Go(msg, out *[4][8]uint64) {
	for i := 0; i < 8; i++ {
		a := [25]uint64{0: msg[0][i], 1: msg[1][i], 2: msg[2][i], 3: msg[3][i], 4: dsSHA3, 16: 0x80 << 56}
		permuteUnrolled(&a)
		out[0][i], out[1][i], out[2][i], out[3][i] = a[0], a[1], a[2], a[3]
	}
}

// permuteUnrolled is Keccak-f[1600] as 24 calls of an unrolled round
// that ping-pong between the caller's state and a scratch one. permute
// stays the readable reference it is tested against.
func permuteUnrolled(a *[25]uint64) {
	var e [25]uint64
	for i := 0; i < rounds; i += 2 {
		roundUnrolled(&e, a, roundConstants[i])
		roundUnrolled(a, &e, roundConstants[i+1])
	}
}

// roundUnrolled writes one Keccak round of a into e (which must not be
// a): theta's D is
// folded into the rho+pi gather, each output row is finished by chi as
// soon as its five inputs exist, and every lane index and rotation
// count is a constant.
func roundUnrolled(e, a *[25]uint64, rc uint64) {
	c0 := a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
	c1 := a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
	c2 := a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
	c3 := a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
	c4 := a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
	d0 := c4 ^ bits.RotateLeft64(c1, 1)
	d1 := c0 ^ bits.RotateLeft64(c2, 1)
	d2 := c1 ^ bits.RotateLeft64(c3, 1)
	d3 := c2 ^ bits.RotateLeft64(c4, 1)
	d4 := c3 ^ bits.RotateLeft64(c0, 1)

	b0 := a[0] ^ d0
	b1 := bits.RotateLeft64(a[6]^d1, 44)
	b2 := bits.RotateLeft64(a[12]^d2, 43)
	b3 := bits.RotateLeft64(a[18]^d3, 21)
	b4 := bits.RotateLeft64(a[24]^d4, 14)
	e[0] = b0 ^ (^b1 & b2) ^ rc
	e[1] = b1 ^ (^b2 & b3)
	e[2] = b2 ^ (^b3 & b4)
	e[3] = b3 ^ (^b4 & b0)
	e[4] = b4 ^ (^b0 & b1)

	b0 = bits.RotateLeft64(a[3]^d3, 28)
	b1 = bits.RotateLeft64(a[9]^d4, 20)
	b2 = bits.RotateLeft64(a[10]^d0, 3)
	b3 = bits.RotateLeft64(a[16]^d1, 45)
	b4 = bits.RotateLeft64(a[22]^d2, 61)
	e[5] = b0 ^ (^b1 & b2)
	e[6] = b1 ^ (^b2 & b3)
	e[7] = b2 ^ (^b3 & b4)
	e[8] = b3 ^ (^b4 & b0)
	e[9] = b4 ^ (^b0 & b1)

	b0 = bits.RotateLeft64(a[1]^d1, 1)
	b1 = bits.RotateLeft64(a[7]^d2, 6)
	b2 = bits.RotateLeft64(a[13]^d3, 25)
	b3 = bits.RotateLeft64(a[19]^d4, 8)
	b4 = bits.RotateLeft64(a[20]^d0, 18)
	e[10] = b0 ^ (^b1 & b2)
	e[11] = b1 ^ (^b2 & b3)
	e[12] = b2 ^ (^b3 & b4)
	e[13] = b3 ^ (^b4 & b0)
	e[14] = b4 ^ (^b0 & b1)

	b0 = bits.RotateLeft64(a[4]^d4, 27)
	b1 = bits.RotateLeft64(a[5]^d0, 36)
	b2 = bits.RotateLeft64(a[11]^d1, 10)
	b3 = bits.RotateLeft64(a[17]^d2, 15)
	b4 = bits.RotateLeft64(a[23]^d3, 56)
	e[15] = b0 ^ (^b1 & b2)
	e[16] = b1 ^ (^b2 & b3)
	e[17] = b2 ^ (^b3 & b4)
	e[18] = b3 ^ (^b4 & b0)
	e[19] = b4 ^ (^b0 & b1)

	b0 = bits.RotateLeft64(a[2]^d2, 62)
	b1 = bits.RotateLeft64(a[8]^d3, 55)
	b2 = bits.RotateLeft64(a[14]^d4, 39)
	b3 = bits.RotateLeft64(a[15]^d0, 41)
	b4 = bits.RotateLeft64(a[21]^d1, 2)
	e[20] = b0 ^ (^b1 & b2)
	e[21] = b1 ^ (^b2 & b3)
	e[22] = b2 ^ (^b3 & b4)
	e[23] = b3 ^ (^b4 & b0)
	e[24] = b4 ^ (^b0 & b1)
}
