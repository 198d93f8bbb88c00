package bitslice

import (
	"math/rand"
	"testing"

	"rbcsalted/internal/keccak"
)

// TestPack256RoundTrip is the roundtrip property test over random
// values: Unpack256(Pack256(x)) == x, and the wide slicing invariant
// sliced[z*4+i/64] bit i%64 == values[i] bit z holds lane-exactly.
func TestPack256RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		var vals [Width256]uint64
		for i := range vals {
			vals[i] = r.Uint64()
		}
		s := Pack256(&vals)
		for z := 0; z < 64; z++ {
			for i := 0; i < Width256; i++ {
				want := vals[i] >> uint(z) & 1
				got := s[z*4+i>>6] >> uint(i&63) & 1
				if got != want {
					t.Fatalf("trial %d: slice[%d] lane %d = %d, want %d", trial, z, i, got, want)
				}
			}
		}
		if back := Unpack256(&s); back != vals {
			t.Fatalf("trial %d: Unpack256(Pack256(x)) != x", trial)
		}
	}
}

func TestSplat256(t *testing.T) {
	s := Splat256(0x8000000000000106)
	vals := Unpack256(&s)
	for i, v := range vals {
		if v != 0x8000000000000106 {
			t.Fatalf("instance %d = %#x", i, v)
		}
	}
}

// forEachKeccakPath runs f once per Keccak round implementation this CPU
// can execute - portable Go always, AVX2 and AVX-512 when present - by
// forcing KeccakF256's choice. Left to CPUID, an AVX-512 runner would
// never execute the AVX2 and portable rounds, which are the SHA-3 batch
// kernel on every other machine.
func forEachKeccakPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range keccakPaths() {
		t.Run(p, func(t *testing.T) {
			defer forceKeccakPath(p)()
			if got := KeccakISA(); got != p {
				t.Fatalf("forced path %q, KeccakISA reports %q", p, got)
			}
			f(t)
		})
	}
}

// TestKeccakF256MatchesScalar drives the wide permutation with Width256
// independent random states and checks every lane against the scalar
// reference permutation, on every round implementation the host has.
func TestKeccakF256MatchesScalar(t *testing.T) {
	forEachKeccakPath(t, testKeccakF256MatchesScalar)
}

func testKeccakF256MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var scalar [Width256][25]uint64
	for i := range scalar {
		for l := range scalar[i] {
			scalar[i][l] = r.Uint64()
		}
	}
	var sliced KeccakState256
	var vals [Width256]uint64
	for l := 0; l < 25; l++ {
		for i := 0; i < Width256; i++ {
			vals[i] = scalar[i][l]
		}
		sliced[l] = Pack256(&vals)
	}

	var e Engine
	e.KeccakF256(&sliced)
	for i := range scalar {
		keccak.Permute(&scalar[i])
	}

	for l := 0; l < 25; l++ {
		got := Unpack256(&sliced[l])
		for i := 0; i < Width256; i++ {
			if got[i] != scalar[i][l] {
				t.Fatalf("instance %d lane %d: got %#x want %#x", i, l, got[i], scalar[i][l])
			}
		}
	}
	if e.Counts().Total() == 0 {
		t.Error("no gates counted")
	}
}

func TestSHA3Seeds256WideMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var seeds [Width256][32]byte
	for i := range seeds {
		r.Read(seeds[i][:])
	}
	var e Engine
	got := e.SHA3Seeds256Wide(&seeds)
	for i := range seeds {
		want := keccak.Sum256Seed(&seeds[i])
		if got[i] != want {
			t.Fatalf("seed %d: got %x want %x", i, got[i], want)
		}
	}
}

// TestWideGateCountsPerSeed pins the wide kernel's accounting to the
// 64-wide kernel's: gates are counted in the same word-level unit, so
// one Width256 batch must record exactly four times the gates of one
// Width batch - identical gates per seed. The APU cycle model depends on
// this equivalence.
func TestWideGateCountsPerSeed(t *testing.T) {
	var narrow [Width][32]byte
	var wide [Width256][32]byte
	var e Engine
	e.SHA3Seeds256(&narrow)
	n := e.Counts()
	e.ResetCounts()
	e.SHA3Seeds256Wide(&wide)
	w := e.Counts()
	if w.Xor != 4*n.Xor || w.And != 4*n.And || w.Or != 4*n.Or || w.Not != 4*n.Not {
		t.Errorf("wide counts %+v are not 4x narrow counts %+v", w, n)
	}
}

// FuzzSHA3Wide differentially fuzzes the wide Keccak kernel against the
// scalar internal/keccak reference: seeds derived from the fuzz input
// must hash identically on every one of the 256 lanes, on every round
// implementation the host has (so the seed corpus covers each path in a
// plain `go test` run).
func FuzzSHA3Wide(f *testing.F) {
	f.Add([]byte("wide keccak"), uint64(1))
	f.Add([]byte{}, uint64(0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, data []byte, salt uint64) {
		var seeds [Width256][32]byte
		for i := range seeds {
			for j := range seeds[i] {
				v := salt + uint64(i)*31 + uint64(j)*7
				if len(data) > 0 {
					v += uint64(data[(i+j)%len(data)])
				}
				seeds[i][j] = byte(v)
			}
		}
		for _, p := range keccakPaths() {
			restore := forceKeccakPath(p)
			var e Engine
			got := e.SHA3Seeds256Wide(&seeds)
			restore()
			// Check a spread of lanes (all 256 would make the fuzzer
			// spend its whole budget in the scalar reference).
			for _, i := range []int{0, 1, 63, 64, 127, 128, 200, 255} {
				if want := keccak.Sum256Seed(&seeds[i]); got[i] != want {
					t.Fatalf("%s lane %d: wide %x, scalar %x", p, i, got[i], want)
				}
			}
		}
	})
}

// BenchmarkSHA3Seeds256Wide isolates the wide kernel cost: one 256-lane
// compression, against which the per-seed cost of the 64-wide kernel
// (BenchmarkSHA3Seeds256) is compared.
func BenchmarkSHA3Seeds256Wide(b *testing.B) {
	var seeds [Width256][32]byte
	var e Engine
	b.SetBytes(Width256 * 32)
	for i := 0; i < b.N; i++ {
		seeds[0][0] = byte(i)
		sinkWide = e.SHA3Seeds256Wide(&seeds)
	}
}

// BenchmarkWideKernels isolates the raw kernel cost behind the batched
// SHA-3 matcher: one 256-lane compression against 256 scalar
// fixed-padding hashes.
func BenchmarkWideKernels(b *testing.B) {
	var wide [Width256][32]byte
	for i := range wide {
		wide[i][0] = byte(i)
		wide[i][31] = byte(i * 7)
	}
	var e Engine
	b.Run("sha3-wide256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.SHA3Seeds256WideSliced(&wide)
		}
	})
	b.Run("sha3-scalar-x256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range wide {
				keccak.Sum256Seed(&wide[j])
			}
		}
	})
}

var sinkWide [Width256][32]byte
