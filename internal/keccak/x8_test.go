package keccak

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// forEachImpl runs f once per SeedDigests8 implementation this CPU
// supports, so an AVX-512 machine still executes the portable body
// every other machine depends on.
func forEachImpl(t *testing.T, f func(t *testing.T)) {
	for _, impl := range SeedDigests8Impls() {
		t.Run(impl, func(t *testing.T) {
			defer ForceSeedDigests8Impl(impl)()
			if got := SeedDigests8Impl(); got != impl {
				t.Fatalf("forced %s, running %s", impl, got)
			}
			f(t)
		})
	}
}

// digests8 hashes eight seeds through SeedDigests8, converting to and
// from its lane-interleaved layout.
func digests8(seeds *[8][32]byte) (sums [8][32]byte) {
	var msg, out [4][8]uint64
	for i := range seeds {
		for l := 0; l < 4; l++ {
			msg[l][i] = binary.LittleEndian.Uint64(seeds[i][8*l:])
		}
	}
	SeedDigests8(&msg, &out)
	for i := range sums {
		for l := 0; l < 4; l++ {
			binary.LittleEndian.PutUint64(sums[i][8*l:], out[l][i])
		}
	}
	return sums
}

// TestSeedDigests8KnownAnswers pins every implementation to SHA3-256
// known answers for 32-byte messages: the Len = 256 vector of the NIST
// CAVP SHA3_256ShortMsg set, then the all-zero, all-one and counting
// messages, spread over different positions of the batch.
func TestSeedDigests8KnownAnswers(t *testing.T) {
	vectors := []struct{ msg, want string }{
		{"9f2fcc7c90de090d6b87cd7e9718c1ea6cb21118fc2d5de9f97e5db6ac1e9c10", "2f1a5f7159e34ea19cddc70ebf9b81f1a66db40615d7ead3cc1f1b954d82a3af"},
		{"0000000000000000000000000000000000000000000000000000000000000000", "9e6291970cb44dd94008c79bcaf9d86f18b4b49ba5b2a04781db7199ed3b9e4e"},
		{"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", "01ed9271b2e7bfdfffb130d403daf002de33317d3806b47aab95fa686efa1689"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "050a48733bd5c2756ba95c5828cc83ee16fabcd3c086885b7744f84a0f9e0d94"},
	}
	forEachImpl(t, func(t *testing.T) {
		var seeds [8][32]byte
		for i := range seeds {
			hex.Decode(seeds[i][:], []byte(vectors[i%len(vectors)].msg))
		}
		for i, sum := range digests8(&seeds) {
			if got, want := hex.EncodeToString(sum[:]), vectors[i%len(vectors)].want; got != want {
				t.Errorf("position %d: SHA3-256(%s) = %s, want %s", i, vectors[i%len(vectors)].msg, got, want)
			}
		}
	})
}

// FuzzSeedDigests8 differentially fuzzes every implementation against
// the scalar reference: the input supplies up to eight seeds (missing
// bytes are zero), and each position's digest must equal Sum256Seed.
func FuzzSeedDigests8(f *testing.F) {
	f.Add([]byte{})                                      // eight all-zero seeds
	f.Add(bytes.Repeat([]byte{0xff}, 256))               // eight all-one seeds
	f.Add(append(make([]byte, 255), 0x01))               // one bit, last byte of the last seed
	f.Add([]byte{0x80})                                  // one bit, first byte of the first seed
	f.Add(append(make([]byte, 32+15), 0x10))             // one bit, mid-lane of the second seed
	f.Add(append(bytes.Repeat([]byte{0xff}, 100), 0x7f)) // mixed positions
	f.Fuzz(func(t *testing.T, data []byte) {
		var seeds [8][32]byte
		for i := range seeds {
			if len(data) > 32*i {
				copy(seeds[i][:], data[32*i:])
			}
		}
		for _, impl := range SeedDigests8Impls() {
			restore := ForceSeedDigests8Impl(impl)
			sums := digests8(&seeds)
			restore()
			for i := range seeds {
				if want := Sum256Seed(&seeds[i]); sums[i] != want {
					t.Fatalf("%s position %d: seed %x hashed to %x, want %x", impl, i, seeds[i], sums[i], want)
				}
			}
		}
	})
}

// TestPermuteUnrolledMatchesReference checks the unrolled permutation
// against the readable one on random full-width states.
func TestPermuteUnrolledMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1600))
	for trial := 0; trial < 200; trial++ {
		var got, want [25]uint64
		for i := range want {
			want[i] = r.Uint64()
		}
		got = want
		Permute(&want)
		permuteUnrolled(&got)
		if got != want {
			t.Fatalf("trial %d: unrolled permutation diverged from the reference", trial)
		}
	}
}

func BenchmarkSeedDigests8(b *testing.B) {
	for _, impl := range SeedDigests8Impls() {
		b.Run(impl, func(b *testing.B) {
			defer ForceSeedDigests8Impl(impl)()
			var msg, out [4][8]uint64
			for i := 0; i < b.N; i++ {
				msg[0][0] = uint64(i)
				SeedDigests8(&msg, &out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/8, "ns/seed")
		})
	}
}
