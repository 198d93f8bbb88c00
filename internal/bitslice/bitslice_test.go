package bitslice

import (
	"math/rand"
	"testing"

	"rbcsalted/internal/keccak"
	"rbcsalted/internal/sha1"
)

func TestTransposeInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var a, orig [64]uint64
	for i := range a {
		a[i] = r.Uint64()
	}
	orig = a
	Transpose64(&a)
	Transpose64(&a)
	if a != orig {
		t.Error("Transpose64 is not an involution")
	}
}

func TestPackUnpackInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var vals [Width]uint64
	for i := range vals {
		vals[i] = r.Uint64()
	}
	s := Pack(&vals)
	// Invariant: sliced[z] bit i == values[i] bit z.
	for z := 0; z < 64; z++ {
		for i := 0; i < Width; i++ {
			want := vals[i] >> uint(z) & 1
			got := s[z] >> uint(i) & 1
			if got != want {
				t.Fatalf("slice[%d] bit %d = %d, want %d", z, i, got, want)
			}
		}
	}
	back := Unpack(&s)
	if back != vals {
		t.Error("Unpack(Pack(x)) != x")
	}
}

func TestPack32RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var vals [Width]uint32
	for i := range vals {
		vals[i] = r.Uint32()
	}
	s := Pack32(&vals)
	if back := Unpack32(&s); back != vals {
		t.Error("Unpack32(Pack32(x)) != x")
	}
}

func TestSplat(t *testing.T) {
	s := Splat(0x8000000000000106)
	vals := Unpack(&s)
	for i, v := range vals {
		if v != 0x8000000000000106 {
			t.Fatalf("instance %d = %#x", i, v)
		}
	}
}

func TestKeccakFMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	// Width independent random states, evaluated scalar and sliced.
	var scalar [Width][25]uint64
	for i := range scalar {
		for l := range scalar[i] {
			scalar[i][l] = r.Uint64()
		}
	}
	var sliced KeccakState
	var vals [Width]uint64
	for l := 0; l < 25; l++ {
		for i := 0; i < Width; i++ {
			vals[i] = scalar[i][l]
		}
		sliced[l] = Pack(&vals)
	}

	var e Engine
	e.KeccakF(&sliced)
	for i := range scalar {
		keccak.Permute(&scalar[i])
	}

	for l := 0; l < 25; l++ {
		got := Unpack(&sliced[l])
		for i := 0; i < Width; i++ {
			if got[i] != scalar[i][l] {
				t.Fatalf("instance %d lane %d: got %#x want %#x", i, l, got[i], scalar[i][l])
			}
		}
	}
	if e.Counts().Total() == 0 {
		t.Error("no gates counted")
	}
}

func TestSHA3Seeds256MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var seeds [Width][32]byte
	for i := range seeds {
		r.Read(seeds[i][:])
	}
	var e Engine
	got := e.SHA3Seeds256(&seeds)
	for i := range seeds {
		want := keccak.Sum256Seed(&seeds[i])
		if got[i] != want {
			t.Fatalf("seed %d: got %x want %x", i, got[i], want)
		}
	}
}

func TestSHA1SeedsMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var seeds [Width][32]byte
	for i := range seeds {
		r.Read(seeds[i][:])
	}
	var e Engine
	got := e.SHA1Seeds(&seeds)
	for i := range seeds {
		want := sha1.SumSeed(&seeds[i])
		if got[i] != want {
			t.Fatalf("seed %d: got %x want %x", i, got[i], want)
		}
	}
}

// TestGateCountsStable pins the per-batch gate counts. These feed the APU
// cycle model, so a silent change in the decomposition must fail loudly.
func TestGateCountsStable(t *testing.T) {
	var seeds [Width][32]byte
	var e Engine
	e.SHA3Seeds256(&seeds)
	sha3 := e.Counts()
	e.ResetCounts()
	e.SHA1Seeds(&seeds)
	sha1c := e.Counts()

	// Keccak-f[1600] per round: theta 3200 XOR (1280 parity + 320 mix +
	// 1600 apply), chi 1600 XOR + 1600 AND + 1600 NOT, iota popcount(RC)
	// NOT; 24 rounds.
	if sha3.Xor != 24*(3200+1600) {
		t.Errorf("SHA3 XOR gates = %d, want %d", sha3.Xor, 24*(3200+1600))
	}
	if sha3.And != 24*1600 {
		t.Errorf("SHA3 AND gates = %d, want %d", sha3.And, 24*1600)
	}
	// SHA-1: 4 ripple-carry adds per round plus 5 in the final feed-forward,
	// each contributing 32 OR gates.
	if sha1c.Or != 32*(4*80+5) {
		t.Errorf("SHA1 OR gates = %d, want %d (4 adds/round + 5 final)", sha1c.Or, 32*(4*80+5))
	}
	t.Logf("gates per 64-seed batch: SHA3=%d SHA1=%d (per seed: %d vs %d)",
		sha3.Total(), sha1c.Total(), sha3.Total()/Width, sha1c.Total()/Width)
}

func TestGateCountAccumulation(t *testing.T) {
	var seeds [Width][32]byte
	var e Engine
	e.SHA3Seeds256(&seeds)
	one := e.Counts().Total()
	e.SHA3Seeds256(&seeds)
	if e.Counts().Total() != 2*one {
		t.Error("gate counts do not accumulate across batches")
	}
	e.ResetCounts()
	if e.Counts().Total() != 0 {
		t.Error("ResetCounts did not zero counters")
	}
	var g GateCounts
	g.Add(GateCounts{Xor: 1, And: 2, Or: 3, Not: 4})
	g.Add(GateCounts{Xor: 1})
	if g.Total() != 11 || g.Xor != 2 {
		t.Errorf("GateCounts.Add wrong: %+v", g)
	}
}

func BenchmarkSHA3Seeds256(b *testing.B) {
	var seeds [Width][32]byte
	var e Engine
	b.SetBytes(Width * 32)
	for i := 0; i < b.N; i++ {
		seeds[0][0] = byte(i)
		sink = e.SHA3Seeds256(&seeds)
	}
}

func BenchmarkSHA1Seeds(b *testing.B) {
	var seeds [Width][32]byte
	var e Engine
	b.SetBytes(Width * 32)
	for i := 0; i < b.N; i++ {
		seeds[0][0] = byte(i)
		sink1 = e.SHA1Seeds(&seeds)
	}
}

var (
	sink  [Width][32]byte
	sink1 [Width][20]byte
)
