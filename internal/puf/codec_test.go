package puf

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// randomImage draws every instability from raw bit patterns, so NaNs of
// every payload, infinities and denormals all occur.
func randomImage(cells int, seed uint64) *Image {
	rng := rand.New(rand.NewPCG(seed, 1))
	im := &Image{Values: make([]bool, cells), Instability: make([]float64, cells)}
	for i := range im.Values {
		im.Values[i] = rng.Uint64()&1 == 1
		switch rng.IntN(4) {
		case 0: // what enrollment produces
			im.Instability[i] = float64(rng.IntN(16)) / 31
		case 1:
			im.Instability[i] = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // denormal
		default:
			im.Instability[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return im
}

func sameImage(t *testing.T, got, want *Image) {
	t.Helper()
	if len(got.Values) != len(want.Values) || len(got.Instability) != len(want.Instability) {
		t.Fatalf("decoded %d values, %d instabilities; want %d, %d",
			len(got.Values), len(got.Instability), len(want.Values), len(want.Instability))
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("cell %d value differs", i)
		}
		if g, w := math.Float64bits(got.Instability[i]), math.Float64bits(want.Instability[i]); g != w {
			t.Fatalf("cell %d instability bits %#x, want %#x", i, g, w)
		}
	}
}

func TestImageCodecRoundTrip(t *testing.T) {
	for _, cells := range []int{0, 1, 7, 8, 9, 1024, 65536} {
		im := randomImage(cells, uint64(cells)+1)
		if cells > 4 {
			im.Instability[0] = math.NaN()
			im.Instability[1] = math.SmallestNonzeroFloat64
			im.Instability[2] = math.Inf(-1)
			im.Instability[3] = math.Copysign(0, -1)
		}
		enc, err := im.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%d cells: %v", cells, err)
		}
		got, err := DecodeImage(enc)
		if err != nil {
			t.Fatalf("%d cells: %v", cells, err)
		}
		sameImage(t, got, im)
	}
}

func TestImageCodecSize(t *testing.T) {
	// A 1,024-cell image of perfectly stable cells: header, bitset and one
	// byte per instability.
	im := &Image{Values: make([]bool, 1024), Instability: make([]float64, 1024)}
	enc, err := im.AppendBinary([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, []byte("prefix")) {
		t.Fatal("AppendBinary overwrote dst")
	}
	if got, want := len(enc)-len("prefix"), 6+128+1024; got != want {
		t.Errorf("encoded size %d, want %d", got, want)
	}
}

func TestImageCodecRejectsMismatchedImage(t *testing.T) {
	im := &Image{Values: make([]bool, 3), Instability: make([]float64, 2)}
	if _, err := im.AppendBinary(nil); err == nil {
		t.Error("image with 3 values and 2 instabilities encoded")
	}
}

func TestDecodeImageHostileInput(t *testing.T) {
	valid, err := randomImage(9, 5).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	withCount := func(n uint32, body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32([]byte{ImageMagic, imageVersion}, n), body...)
	}
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "not an encoded image"},
		{"gob stream", []byte{0x2c, 0xff, 0x81, 3, 1, 1, 5}, "not an encoded image"},
		{"short header", []byte{ImageMagic, imageVersion, 0, 0}, "not an encoded image"},
		{"version 0", append([]byte{ImageMagic, 0}, valid[2:]...), "unsupported image version 0"},
		{"version 2", append([]byte{ImageMagic, 2}, valid[2:]...), "unsupported image version 2"},
		{"count beyond length", withCount(math.MaxUint32), "claims 4294967295 cells"},
		{"count one too many", withCount(8, 0xff, 0, 0, 0, 0, 0, 0, 0), "claims 8 cells"},
		{"truncated varint", withCount(1, 1, 0x80), "truncated or overlong"},
		{"overlong varint", withCount(1, append([]byte{1}, bytes.Repeat([]byte{0xff}, 11)...)...), "truncated or overlong"},
		{"overflowing varint", withCount(1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), "truncated or overlong"},
		{"padding bits", withCount(1, 0x02, 0), "padding bits"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), "after the image's last cell"},
		{"truncated", valid[:len(valid)-1], ""},
	}
	// The decode-into path refuses the same inputs with the same errors,
	// and leaves its destination - a pooled image holding another
	// client's cells - with none.
	dst := randomImage(64, 9)
	for _, tc := range cases {
		im, err := DecodeImage(tc.in)
		if err == nil {
			t.Errorf("%s: decoded %d cells from hostile input", tc.name, len(im.Values))
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, err, tc.want)
		}
		intoErr := DecodeImageInto(dst, tc.in)
		if intoErr == nil || intoErr.Error() != err.Error() {
			t.Errorf("%s: DecodeImageInto error %v, DecodeImage %v", tc.name, intoErr, err)
		}
		if len(dst.Values) != 0 || len(dst.Instability) != 0 {
			t.Errorf("%s: a refused decode left %d values, %d instabilities", tc.name, len(dst.Values), len(dst.Instability))
		}
	}
}

// benchPopulation is how many distinct images the codec benchmarks
// cycle through: as many as the wire-to-wire benchmark enrols. A PUF bit
// is a coin flip across images, so a benchmark that codes one image over
// and over trains the branch predictor on its bits and times a cost no
// enrolment or handshake pays.
const benchPopulation = 4096

// benchSet is one profile's benchPopulation enrolled images.
type benchSet struct {
	name   string
	images []*Image
}

// benchImages enrolls benchPopulation distinct 1,024-cell devices for
// each benchmarked profile: noiseless devices over 3 reads, as the
// wire-to-wire benchmark enrols them (every instability 0, a one-byte
// varint), and default-profile devices over 31 reads, as rbc-server
// enrols them (flaky cells' instabilities are multi-byte varints).
func benchImages(b *testing.B) []benchSet {
	b.Helper()
	var sets []benchSet
	for _, tc := range []struct {
		name  string
		p     Profile
		reads int
	}{{"stable", Profile{}, 3}, {"default", DefaultProfile, 31}} {
		set := benchSet{name: tc.name, images: make([]*Image, benchPopulation)}
		for i := range set.images {
			d, err := NewDevice(uint64(i), 1024, tc.p)
			if err != nil {
				b.Fatal(err)
			}
			if set.images[i], err = Enroll(d, tc.reads); err != nil {
				b.Fatal(err)
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// BenchmarkAppendBinary encodes one enrolled image per op, cycling
// through benchPopulation of them: the plaintext ImageStore.Put seals on
// every enrolment.
func BenchmarkAppendBinary(b *testing.B) {
	for _, tc := range benchImages(b) {
		b.Run(tc.name, func(b *testing.B) {
			buf, err := tc.images[0].AppendBinary(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = tc.images[i%len(tc.images)].AppendBinary(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeImage decodes one enrolled image per op into a reused
// Image, cycling through benchPopulation encodings: the plaintext a
// handshake unseals into its pooled image.
func BenchmarkDecodeImage(b *testing.B) {
	for _, tc := range benchImages(b) {
		b.Run(tc.name, func(b *testing.B) {
			encs := make([][]byte, len(tc.images))
			for i, im := range tc.images {
				var err error
				if encs[i], err = im.AppendBinary(nil); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(encs[0])))
			b.ReportAllocs()
			dst := new(Image)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeImageInto(dst, encs[i%len(encs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzImageCodec checks both directions: arbitrary bytes never panic the
// decoder or make it size anything past the input's length, and what it
// does accept re-encodes to an image that decodes identically; a random
// image (NaN and denormal instabilities included) survives encode then
// decode bit for bit. Every encoding is also byte-for-byte the reference
// encoder's.
func FuzzImageCodec(f *testing.F) {
	for _, cells := range []uint32{0, 1, 7, 8, 9, 1024, 65536} {
		enc, err := randomImage(int(cells), 3).AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		if cells > 1024 {
			enc = enc[:64] // keep the corpus small; the count still says 65,536
		}
		f.Add(enc, cells, uint64(cells))
	}
	f.Add([]byte{ImageMagic, imageVersion, 0xff, 0xff, 0xff, 0xff}, uint32(3), uint64(0))
	// One-byte and multi-byte instabilities interleaved, so the decoder's
	// one-byte path hands over to the general one and back mid-image.
	mixed := &Image{Values: make([]bool, 12), Instability: make([]float64, 12)}
	for i := range mixed.Instability {
		if i%3 == 1 {
			mixed.Instability[i] = float64(i) / 51
		}
	}
	enc, err := mixed.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc, uint32(12), uint64(12))
	// The input ends inside a varint: its last byte is a continuation byte.
	f.Add(append(enc[:len(enc)-1:len(enc)-1], 0x80), uint32(12), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, cells uint32, seed uint64) {
		if im, err := DecodeImage(data); err == nil {
			if len(im.Values) > len(data) || len(im.Instability) != len(im.Values) {
				t.Fatalf("%d input bytes decoded to %d values, %d instabilities",
					len(data), len(im.Values), len(im.Instability))
			}
			enc, err := im.AppendBinary(nil)
			if err != nil {
				t.Fatalf("decoded image does not encode: %v", err)
			}
			if !bytes.Equal(enc, refAppendBinary(im, nil)) {
				t.Fatal("re-encoding differs from the reference encoder")
			}
			again, err := DecodeImage(enc)
			if err != nil {
				t.Fatalf("re-encoded image does not decode: %v", err)
			}
			sameImage(t, again, im)
		}

		want := randomImage(int(cells%(1<<16+1)), seed)
		enc, err := want.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, refAppendBinary(want, nil)) {
			t.Fatal("encoding differs from the reference encoder")
		}
		got, err := DecodeImage(enc)
		if err != nil {
			t.Fatal(err)
		}
		sameImage(t, got, want)
	})
}
