package puf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The binary layout of an Image, the plaintext the CA's image store
// seals:
//
//	0x00 | version (1) | u32 cell count n, big-endian
//	     | Values as a bitset, ceil(n/8) bytes, cell i at bit i%8 of byte i/8
//	     | n uvarints, cell i's Instability as byte-reversed Float64bits
//
// The leading 0x00 tells the layout apart from the gob stream older
// stores sealed (gob never opens with a zero-length message). Reversing
// the float's bytes puts the exponent last, so the short mantissas
// enrollment produces (0, 1/2, 1/4 ...) take one to three bytes, and the
// round trip is bit-exact for every float64, NaN payloads included.
//
// A new layout takes the next version number; DecodeImage keeps reading
// every version it ever wrote.
const (
	// ImageMagic is the first byte of every encoded image.
	ImageMagic       = 0x00
	imageVersion     = 1
	imageHeaderBytes = 6 // magic + version + u32 cell count
)

// AppendBinary appends im's encoding to dst.
//
// Neither loop branches on a cell's value: across a population of
// images a PUF bit is a coin flip, and a branch on it mispredicts half
// the time. The instability loop's one test is on the varint's length,
// which an enrolled image's mostly-zero instabilities make predictable.
func (im *Image) AppendBinary(dst []byte) ([]byte, error) {
	n := len(im.Values)
	if len(im.Instability) != n {
		return dst, fmt.Errorf("puf: image has %d values but %d instabilities", n, len(im.Instability))
	}
	if uint64(n) > math.MaxUint32 {
		return dst, fmt.Errorf("puf: image of %d cells is too large to encode", n)
	}
	// Exact for an image of perfectly stable cells, a floor otherwise.
	dst = slices.Grow(dst, imageHeaderBytes+(n+7)/8+n)
	dst = append(dst, ImageMagic, imageVersion)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	full := n &^ 7
	for j := 0; j < full; j += 8 {
		v := (*[8]bool)(im.Values[j:])
		dst = append(dst, b2u(v[0])|b2u(v[1])<<1|b2u(v[2])<<2|b2u(v[3])<<3|
			b2u(v[4])<<4|b2u(v[5])<<5|b2u(v[6])<<6|b2u(v[7])<<7)
	}
	if full < n {
		var last byte
		for k, v := range im.Values[full:] {
			last |= b2u(v) << k
		}
		dst = append(dst, last)
	}
	for _, inst := range im.Instability {
		if u := bits.ReverseBytes64(math.Float64bits(inst)); u < 0x80 {
			dst = append(dst, byte(u))
		} else {
			dst = binary.AppendUvarint(dst, u)
		}
	}
	return dst, nil
}

// b2u is a bool as 0 or 1; the compiler turns it into a byte move, not a
// branch.
func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeImage parses an encoding written by AppendBinary into a new
// Image (see DecodeImageInto).
func DecodeImage(p []byte) (*Image, error) {
	im := new(Image)
	if err := DecodeImageInto(im, p); err != nil {
		return nil, err
	}
	return im, nil
}

// DecodeImageInto parses an encoding written by AppendBinary into dst,
// reusing its slices' capacity: every one of the encoding's cells is
// overwritten, and dst ends with exactly that many. The input comes from
// disk or the replication stream, so everything about it is checked: a
// wrong version, a cell count the length cannot hold, a truncated or
// overlong varint, set padding bits and trailing bytes are errors, and
// nothing is allocated before the cell count is known to fit. On an
// error dst is left with no cells.
func DecodeImageInto(dst *Image, p []byte) error {
	dst.Values, dst.Instability = dst.Values[:0], dst.Instability[:0]
	if len(p) < imageHeaderBytes || p[0] != ImageMagic {
		return errors.New("puf: not an encoded image")
	}
	if p[1] != imageVersion {
		return fmt.Errorf("puf: unsupported image version %d", p[1])
	}
	cells := binary.BigEndian.Uint32(p[2:imageHeaderBytes])
	body := p[imageHeaderBytes:]
	// Every instability takes at least one byte, so a count the body
	// cannot hold is refused before it sizes anything.
	if uint64(cells) > uint64(len(body)) {
		return fmt.Errorf("puf: image claims %d cells in %d bytes", cells, len(body))
	}
	n := int(cells)
	setBytes := (n + 7) / 8
	if setBytes+n > len(body) {
		return fmt.Errorf("puf: image claims %d cells in %d bytes", n, len(body))
	}
	set, rest := body[:setBytes], body[setBytes:]
	if n%8 != 0 && set[setBytes-1]>>(n%8) != 0 {
		return errors.New("puf: image bitset has padding bits set")
	}
	values := resize(dst.Values, n)
	inst := resize(dst.Instability, n)
	for j, b := range set[:n/8] {
		*(*[8]bool)(values[8*j:]) = [8]bool{
			b&0x01 != 0, b&0x02 != 0, b&0x04 != 0, b&0x08 != 0,
			b&0x10 != 0, b&0x20 != 0, b&0x40 != 0, b&0x80 != 0,
		}
	}
	for i := n &^ 7; i < n; i++ {
		values[i] = set[i/8]>>(i%8)&1 == 1
	}
	pos := 0
	for i := range inst {
		// A one-byte varint - the 0 of every cell that never flipped
		// during enrollment - is the float's top byte, nothing else set.
		if pos < len(rest) && rest[pos] < 0x80 {
			inst[i] = math.Float64frombits(uint64(rest[pos]) << 56)
			pos++
			continue
		}
		v, size := binary.Uvarint(rest[pos:])
		if size <= 0 {
			return fmt.Errorf("puf: image instability %d is truncated or overlong", i)
		}
		inst[i] = math.Float64frombits(bits.ReverseBytes64(v))
		pos += size
	}
	if pos != len(rest) {
		return fmt.Errorf("puf: %d bytes after the image's last cell", len(rest)-pos)
	}
	dst.Values, dst.Instability = values, inst
	return nil
}

// resize returns s with length n, reusing its array when it is large
// enough. The caller overwrites every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
