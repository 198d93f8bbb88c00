package bitslice

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"rbcsalted/internal/keccak"
)

// TestFlipBit checks FlipBit toggles exactly the invariant bit: bit z of
// instance i is bit i%64 of word z*4+i/64, and a double flip restores
// the slice.
func TestFlipBit(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var vals [Width256]uint64
	for i := range vals {
		vals[i] = r.Uint64()
	}
	s := Pack256(&vals)
	orig := s
	for _, c := range [][2]int{{0, 0}, {63, 5}, {64, 63}, {255, 17}, {130, 40}} {
		i, z := c[0], c[1]
		s.FlipBit(i, z)
		back := Unpack256(&s)
		want := vals[i] ^ 1<<uint(z)
		if back[i] != want {
			t.Fatalf("FlipBit(%d,%d): instance %d = %#x, want %#x", i, z, i, back[i], want)
		}
		for j := range back {
			if j != i && back[j] != vals[j] {
				t.Fatalf("FlipBit(%d,%d) disturbed instance %d", i, z, j)
			}
		}
		s.FlipBit(i, z)
	}
	if s != orig {
		t.Fatal("double FlipBit did not restore the slice")
	}
}

// TestDeltaFillMatchesRepack is the delta engine's core property: XORing
// a seed-domain delta into a resident sliced batch with DeltaFill lands
// bit-identically where packing the XORed values from scratch would.
// Deltas range from single bits (the Gray-code step) to dense random
// limbs (a chain re-prime would be cheaper, but correctness must hold).
func TestDeltaFillMatchesRepack(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var vals [4][Width256]uint64 // message lanes per candidate
	for l := range vals {
		for i := range vals[l] {
			vals[l][i] = r.Uint64()
		}
	}
	var msg [4]Slice256
	PackSeedVals256(&msg, &vals)

	sparse := func() uint64 { return 1 << uint(r.Intn(64)) }
	deltas := [][5]uint64{
		// {lane index, d0..d3} in seed-limb domain (limb 0 least
		// significant, as u256.Limb numbers them).
		{0, sparse(), 0, 0, 0},
		{17, 0, sparse() | sparse(), 0, 0},
		{63, 0, 0, 0, sparse()},
		{64, sparse(), sparse(), sparse(), sparse()},
		{255, r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()},
		{130, 0, 0, r.Uint64(), 0},
	}
	for _, d := range deltas {
		i := int(d[0])
		DeltaFill(&msg, i, d[1], d[2], d[3], d[4])
		// Seed limb j occupies message lane 3-j byte-swapped, so the
		// expected lane update is the byte-swapped delta limb.
		for limb := 0; limb < 4; limb++ {
			vals[3-limb][i] ^= bits.ReverseBytes64(d[1+limb])
		}
	}

	var want [4]Slice256
	PackSeedVals256(&want, &vals)
	if msg != want {
		t.Fatal("DeltaFill diverged from a fresh pack of the XORed values")
	}
}

// TestSHA3Msg256WideSliced checks the resident-message compression (a)
// produces the same digest columns as the pack-per-call entry point, (b)
// leaves the caller's message lanes intact for the next delta advance,
// and (c) agrees with the scalar reference on a spread of lanes.
func TestSHA3Msg256WideSliced(t *testing.T) {
	forEachKeccakPath(t, testSHA3Msg256WideSliced)
}

func testSHA3Msg256WideSliced(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var vals [4][Width256]uint64
	var seeds [Width256][32]byte
	for i := 0; i < Width256; i++ {
		r.Read(seeds[i][:])
		for l := 0; l < 4; l++ {
			vals[l][i] = binary.LittleEndian.Uint64(seeds[i][l*8:])
		}
	}
	var e Engine
	want := e.SHA3Seeds256WideSliced(&seeds)

	var msg [4]Slice256
	PackSeedVals256(&msg, &vals)
	resident := msg
	got := e.SHA3Msg256WideSliced(&msg)
	if got != want {
		t.Fatal("SHA3Msg256WideSliced digest columns differ from SHA3Seeds256WideSliced")
	}
	if msg != resident {
		t.Fatal("SHA3Msg256WideSliced mutated the resident message lanes")
	}
	// Second call from the untouched resident state must reproduce the
	// digests (the delta loop compresses the same state after a no-op
	// advance, e.g. repeated pad lanes).
	if again := e.SHA3Msg256WideSliced(&msg); again != want {
		t.Fatal("second compression of the resident state diverged")
	}

	for _, i := range []int{0, 1, 63, 64, 127, 255} {
		ref := keccak.Sum256Seed(&seeds[i])
		for l := 0; l < 4; l++ {
			wantLane := binary.LittleEndian.Uint64(ref[l*8:])
			gotLane := Unpack256(&got[l])[i]
			if gotLane != wantLane {
				t.Fatalf("lane %d digest word %d: got %#x want %#x", i, l, gotLane, wantLane)
			}
		}
	}
}
