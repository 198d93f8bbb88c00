//go:build !amd64

package keccak

// Off amd64 the portable body is the only SeedDigests8.
const haveAVX512 = false

// HaveAVX512 reports whether AVX-512 assembly can run: never, here.
func HaveAVX512() bool { return false }

func seedDigests8AVX512(msg, out *[4][8]uint64) {
	panic("keccak: vector SeedDigests8 is amd64-only")
}
