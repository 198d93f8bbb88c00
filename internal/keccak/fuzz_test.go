package keccak

import (
	"bytes"
	stdsha3 "crypto/sha3"
	"testing"
)

// FuzzSum256VsStdlib differentially tests the from-scratch SHA3-256
// against the standard library on arbitrary inputs.
func FuzzSum256VsStdlib(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abc"))
	f.Add(bytes.Repeat([]byte{0x13}, 136)) // exact rate block
	f.Add(bytes.Repeat([]byte{0x5A}, 137))
	f.Fuzz(func(t *testing.T, data []byte) {
		if Sum256(data) != stdsha3.Sum256(data) {
			t.Fatalf("SHA3-256 mismatch for %d bytes", len(data))
		}
	})
}

// FuzzSum256SeedVsStdlib differentially tests the fixed-padding seed
// digest, which runs the unrolled permutation rather than the sponge's,
// against the standard library on arbitrary 32-byte seeds. Inputs of
// other lengths are cut or zero-padded to 32 bytes.
func FuzzSum256SeedVsStdlib(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed [32]byte
		copy(seed[:], data)
		if got, want := Sum256Seed(&seed), stdsha3.Sum256(seed[:]); got != want {
			t.Fatalf("Sum256Seed(%x) = %x, want %x", seed, got, want)
		}
	})
}

// FuzzSHAKE128VsStdlib covers the XOF path, including the squeeze length.
func FuzzSHAKE128VsStdlib(f *testing.F) {
	f.Add([]byte("seed"), uint16(32))
	f.Add([]byte{}, uint16(1))
	f.Add(bytes.Repeat([]byte{9}, 200), uint16(400))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		length := int(n%512) + 1
		got := SumSHAKE128(data, length)
		want := stdsha3.SumSHAKE128(data, length)
		if !bytes.Equal(got, want) {
			t.Fatalf("SHAKE128 mismatch: %d in, %d out", len(data), length)
		}
	})
}
