package puf

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"rbcsalted/internal/u256"
)

// The branching loops the image path ran before it was made branch-free,
// kept as references: the encoder, the seed packers and the stable-cell
// scan must produce the same bytes, seeds, indices and device draws.

func refAppendBinary(im *Image, dst []byte) []byte {
	n := len(im.Values)
	dst = append(dst, ImageMagic, imageVersion)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	set := len(dst)
	dst = append(dst, make([]byte, (n+7)/8)...)
	for i, v := range im.Values {
		if v {
			dst[set+i/8] |= 1 << (i % 8)
		}
	}
	for _, inst := range im.Instability {
		dst = binary.AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(inst)))
	}
	return dst
}

func refSeed(im *Image, addressMap []int) u256.Uint256 {
	var limbs [4]uint64
	for j, cell := range addressMap {
		if im.Values[cell] {
			limbs[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return u256.New(limbs[0], limbs[1], limbs[2], limbs[3])
}

func refReadCell(d *Device, i int) bool {
	c := d.cells[i]
	if d.rng.Float64() < c.ErrRate {
		return !c.Value
	}
	return c.Value
}

func refReadSeed(d *Device, addressMap []int) (u256.Uint256, bool) {
	seed := u256.Zero
	for j, cell := range addressMap {
		if cell < 0 || cell >= len(d.cells) {
			return u256.Zero, false
		}
		if refReadCell(d, cell) {
			seed = seed.SetBit(j, 1)
		}
	}
	return seed, true
}

func refAppendStable(im *Image, dst []int, threshold float64) []int {
	for i, inst := range im.Instability {
		if inst < threshold {
			dst = append(dst, i)
		}
	}
	return dst
}

// refCells are the cell counts the reference tests cover: empty, short
// of a byte, across byte boundaries and not multiples of 8.
var refCells = []int{0, 1, 7, 8, 9, 15, 255, 256, 257, 1023, 1024, 1031, 4099}

// enrolledImage enrolls a fresh device under p, as the CA's enrollment
// facility does.
func enrolledImage(t testing.TB, seed uint64, cells int, p Profile) (*Device, *Image) {
	t.Helper()
	d, err := NewDevice(seed, cells, p)
	if err != nil {
		t.Fatal(err)
	}
	im, err := Enroll(d, 31)
	if err != nil {
		t.Fatal(err)
	}
	return d, im
}

func TestAppendBinaryMatchesReference(t *testing.T) {
	check := func(name string, im *Image) {
		t.Helper()
		for _, prefix := range [][]byte{nil, []byte("prefix")} {
			got, err := im.AppendBinary(slices.Clone(prefix))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := refAppendBinary(im, slices.Clone(prefix)); !bytes.Equal(got, want) {
				t.Fatalf("%s: encoding differs from the reference encoder\n got %x\nwant %x", name, got, want)
			}
		}
	}
	for _, cells := range refCells {
		for seed := range uint64(20) {
			im := randomImage(cells, seed)
			if cells > 4 {
				im.Instability[0] = math.NaN()
				im.Instability[1] = math.SmallestNonzeroFloat64
				im.Instability[2] = math.Inf(1)
				im.Instability[3] = math.Copysign(0, -1)
			}
			check("random", im)
		}
	}
	for _, p := range []Profile{{}, DefaultProfile} {
		for seed := range uint64(20) {
			_, im := enrolledImage(t, seed, 256+int(seed)*37, p)
			check("enrolled", im)
		}
	}
}

func TestSeedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, cells := range refCells {
		if cells == 0 {
			continue
		}
		for seed := range uint64(20) {
			im := randomImage(cells, seed)
			addr := make([]int, SeedBits)
			for j := range addr {
				addr[j] = rng.IntN(cells)
			}
			got, err := im.Seed(addr)
			if err != nil {
				t.Fatal(err)
			}
			if want := refSeed(im, addr); got != want {
				t.Fatalf("%d cells: seed %v, reference %v", cells, got, want)
			}
		}
	}
}

// TestReadSeedMatchesReference reads twin devices, one through ReadSeed
// and one through the reference loop: the seeds match, and so does each
// device's next draw, so ReadSeed took exactly the reference's draws.
func TestReadSeedMatchesReference(t *testing.T) {
	for _, p := range []Profile{{}, DefaultProfile} {
		for seed := range uint64(10) {
			cells := 256 + int(seed)*101
			d, _ := enrolledImage(t, seed, cells, p)
			ref, _ := enrolledImage(t, seed, cells, p)
			rng := rand.New(rand.NewPCG(seed, 3))
			for range 50 {
				addr := make([]int, SeedBits)
				for j := range addr {
					addr[j] = rng.IntN(cells)
				}
				if rng.IntN(10) == 0 {
					addr[rng.IntN(SeedBits)] = cells + rng.IntN(3) // out of range mid-map
				}
				got, err := d.ReadSeed(addr)
				want, ok := refReadSeed(ref, addr)
				if (err == nil) != ok {
					t.Fatalf("ReadSeed error %v, reference ok %v", err, ok)
				}
				if got != want {
					t.Fatalf("seed %v, reference %v", got, want)
				}
				if g, w := d.rng.Uint64(), ref.rng.Uint64(); g != w {
					t.Fatalf("next draw %#x, reference %#x: ReadSeed drew differently", g, w)
				}
			}
		}
	}
}

func TestAppendStableMatchesReference(t *testing.T) {
	thresholds := []float64{0, 0.2, 0.5, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}
	for _, cells := range refCells {
		im := randomImage(cells, uint64(cells))
		for _, th := range thresholds {
			for _, prefix := range [][]int{nil, {-1, -2}} {
				got := im.appendStable(slices.Clone(prefix), th)
				if want := refAppendStable(im, slices.Clone(prefix), th); !slices.Equal(got, want) {
					t.Fatalf("%d cells, threshold %v: %v, reference %v", cells, th, got, want)
				}
			}
		}
	}
	for _, p := range []Profile{{}, DefaultProfile} {
		_, im := enrolledImage(t, 5, 1024, p)
		if got, want := im.TernaryMask(0.2), refAppendStable(im, nil, 0.2); !slices.Equal(got, want) {
			t.Fatalf("TernaryMask %v, reference %v", got, want)
		}
	}
}

// TestDecodeImageIntoLeavesNoStaleCell reuses one destination across
// images of different cell counts, each time with its whole capacity
// set to true values and a NaN instability: every cell is overwritten
// and the count is the encoding's.
func TestDecodeImageIntoLeavesNoStaleCell(t *testing.T) {
	dst := new(Image)
	for _, cells := range []int{4099, 9, 1024, 0, 257, 2048, 1} {
		want := randomImage(cells, uint64(cells)+11)
		enc, err := want.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		full := dst.Values[:cap(dst.Values)]
		for i := range full {
			full[i] = true
		}
		inst := dst.Instability[:cap(dst.Instability)]
		for i := range inst {
			inst[i] = math.Float64frombits(0x7ff8dead0000beef)
		}
		if err := DecodeImageInto(dst, enc); err != nil {
			t.Fatalf("%d cells: %v", cells, err)
		}
		sameImage(t, dst, want)
	}
}
