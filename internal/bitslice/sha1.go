package bitslice

// Bit-sliced SHA-1. Unlike Keccak, SHA-1 is built on modular 32-bit
// addition, which has no free bit-parallel form: each add becomes a
// ripple-carry adder chain of XOR/AND/OR gates. This is exactly why the
// paper observes SHA-1 needing fewer bit processors per PE than SHA-3 on
// the APU (less state) while still costing real cycles per hash.
//
// The gate decomposition (and the counts recorded for the APU cycle
// model) is the canonical ripple-carry one; the evaluation is arranged
// for the host: adds run in place with the operands held in locals so
// the destination may alias a source, rotations are two block copies,
// the round constants are splatted once at package init, and the five
// working variables live in a fixed ring of buffers so the per-round
// role rotation moves pointers instead of 256-byte values.

const (
	sha1K0 = 0x5A827999
	sha1K1 = 0x6ED9EBA1
	sha1K2 = 0x8F1BBCDC
	sha1K3 = 0xCA62C1D6
)

// splat32 returns a Slice32 with the same 32-bit constant in every instance.
func splat32(v uint32) Slice32 {
	var out Slice32
	for z := 0; z < 32; z++ {
		if v>>uint(z)&1 == 1 {
			out[z] = ^uint64(0)
		}
	}
	return out
}

// sha1KS holds the four round constants pre-splatted across all lanes.
var sha1KS = [4]Slice32{
	splat32(sha1K0), splat32(sha1K1), splat32(sha1K2), splat32(sha1K3),
}

// sha1Init holds the initial hash value pre-splatted across all lanes.
var sha1Init = [5]Slice32{
	splat32(0x67452301), splat32(0xEFCDAB89), splat32(0x98BADCFE),
	splat32(0x10325476), splat32(0xC3D2E1F0),
}

// addInto stores a + b per instance into dst via a ripple-carry adder:
// 2 XOR + 2 AND + 1 OR per bit (carry-out of the top bit is discarded).
// dst may alias a or b.
func (e *Engine) addInto(dst, a, b *Slice32) {
	var carry uint64
	for z := 0; z < 32; z++ {
		az, bz := a[z], b[z]
		axb := az ^ bz
		dst[z] = axb ^ carry
		carry = (az & bz) | (carry & axb)
	}
	e.counts.Xor += 2 * 32
	e.counts.And += 2 * 32
	e.counts.Or += 32
}

// rotlInto stores a rotated left by n bits (per instance) into dst.
// Pure wiring: no gates. dst must not alias a.
func rotlInto(dst, a *Slice32, n int) {
	copy(dst[n:], a[:32-n])
	copy(dst[:n], a[32-n:])
}

// The three round bodies below compute t = ROTL5(a) + f(b,c,d) + e +
// w + k into e's buffer in a single pass over the bit columns: the
// ROTL5 is a masked index on the read, f is evaluated inline, and the
// four ripple-carry adds chain their full adders bit-serially with the
// carries held in registers. The executed gates per bit are exactly
// those of f plus four full adders (2 XOR + 2 AND + 1 OR each) - the
// same decomposition addInto performs for a standalone add, and the
// same one the gate counts charge.

// roundCh is the fused round for f = Ch(b,c,d) = d ^ (b & (c ^ d)).
func (e *Engine) roundCh(a, b, c, d, ee, w, k *Slice32) {
	var c1, c2, c3, c4 uint64
	for z := 0; z < 32; z++ {
		a5 := a[(z+27)&31]
		fz := d[z] ^ (b[z] & (c[z] ^ d[z]))
		x1 := a5 ^ fz
		s1 := x1 ^ c1
		c1 = (a5 & fz) | (c1 & x1)
		ez := ee[z]
		x2 := s1 ^ ez
		s2 := x2 ^ c2
		c2 = (s1 & ez) | (c2 & x2)
		wz := w[z]
		x3 := s2 ^ wz
		s3 := x3 ^ c3
		c3 = (s2 & wz) | (c3 & x3)
		kz := k[z]
		x4 := s3 ^ kz
		ee[z] = x4 ^ c4
		c4 = (s3 & kz) | (c4 & x4)
	}
	e.counts.Xor += (2 + 4*2) * 32
	e.counts.And += (1 + 4*2) * 32
	e.counts.Or += 4 * 32
}

// roundParity is the fused round for f = b ^ c ^ d.
func (e *Engine) roundParity(a, b, c, d, ee, w, k *Slice32) {
	var c1, c2, c3, c4 uint64
	for z := 0; z < 32; z++ {
		a5 := a[(z+27)&31]
		fz := b[z] ^ c[z] ^ d[z]
		x1 := a5 ^ fz
		s1 := x1 ^ c1
		c1 = (a5 & fz) | (c1 & x1)
		ez := ee[z]
		x2 := s1 ^ ez
		s2 := x2 ^ c2
		c2 = (s1 & ez) | (c2 & x2)
		wz := w[z]
		x3 := s2 ^ wz
		s3 := x3 ^ c3
		c3 = (s2 & wz) | (c3 & x3)
		kz := k[z]
		x4 := s3 ^ kz
		ee[z] = x4 ^ c4
		c4 = (s3 & kz) | (c4 & x4)
	}
	e.counts.Xor += (2 + 4*2) * 32
	e.counts.And += 4 * 2 * 32
	e.counts.Or += 4 * 32
}

// roundMaj is the fused round for f = Maj(b,c,d) = b ^ ((b^c) & (b^d)).
func (e *Engine) roundMaj(a, b, c, d, ee, w, k *Slice32) {
	var c1, c2, c3, c4 uint64
	for z := 0; z < 32; z++ {
		a5 := a[(z+27)&31]
		bz := b[z]
		fz := bz ^ ((bz ^ c[z]) & (bz ^ d[z]))
		x1 := a5 ^ fz
		s1 := x1 ^ c1
		c1 = (a5 & fz) | (c1 & x1)
		ez := ee[z]
		x2 := s1 ^ ez
		s2 := x2 ^ c2
		c2 = (s1 & ez) | (c2 & x2)
		wz := w[z]
		x3 := s2 ^ wz
		s3 := x3 ^ c3
		c3 = (s2 & wz) | (c3 & x3)
		kz := k[z]
		x4 := s3 ^ kz
		ee[z] = x4 ^ c4
		c4 = (s3 & kz) | (c4 & x4)
	}
	e.counts.Xor += (3 + 4*2) * 32
	e.counts.And += (1 + 4*2) * 32
	e.counts.Or += 4 * 32
}

// SHA1Seeds hashes Width 32-byte seeds with SHA-1 in one bit-sliced
// compression, using the fixed single-block padding for 256-bit messages.
func (e *Engine) SHA1Seeds(seeds *[Width][32]byte) [Width][20]byte {
	// Message schedule: 8 seed words (big-endian), then the fixed pad.
	var w [80]Slice32
	var vals [Width]uint32
	for word := 0; word < 8; word++ {
		for i := 0; i < Width; i++ {
			b := seeds[i][word*4:]
			vals[i] = uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		}
		w[word] = Pack32(&vals)
	}
	w[8] = splat32(0x80000000)
	// w[9..14] stay zero.
	w[15] = splat32(256) // message length in bits
	for i := 16; i < 80; i++ {
		// w[i] = ROTL1(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]), the three
		// XORs fused with the rotation (out bit z is in bit z-1).
		w3, w8, w14, w16, wi := &w[i-3], &w[i-8], &w[i-14], &w[i-16], &w[i]
		wi[0] = w3[31] ^ w8[31] ^ w14[31] ^ w16[31]
		for z := 1; z < 32; z++ {
			wi[z] = w3[z-1] ^ w8[z-1] ^ w14[z-1] ^ w16[z-1]
		}
		e.counts.Xor += 3 * 32
	}

	// The five working variables live in a ring of buffers: at round i
	// role r (0=a .. 4=e) occupies v[(r-i) mod 5], so the per-round
	// rotation a,b,c,d,e = t,a,ROTL30(b),c,d is a pointer shift plus the
	// one in-place rotation b actually needs.
	var v [5]Slice32
	for r := range v {
		v[r] = sha1Init[r]
	}
	var tmp Slice32
	for i := 0; i < 80; i++ {
		j := 5 - i%5
		a := &v[j%5]
		b := &v[(j+1)%5]
		c := &v[(j+2)%5]
		d := &v[(j+3)%5]
		ee := &v[(j+4)%5]

		switch {
		case i < 20:
			e.roundCh(a, b, c, d, ee, &w[i], &sha1KS[0])
		case i < 40:
			e.roundParity(a, b, c, d, ee, &w[i], &sha1KS[1])
		case i < 60:
			e.roundMaj(a, b, c, d, ee, &w[i], &sha1KS[2])
		default:
			e.roundParity(a, b, c, d, ee, &w[i], &sha1KS[3])
		}

		// b = ROTL30(b) in place via tmp.
		tmp = *b
		rotlInto(b, &tmp, 30)
	}

	// Final feed-forward: h = init + v, reading the roles at their
	// post-loop ring positions (round index 80).
	var hs [5]Slice32
	for r := range hs {
		hs[r] = sha1Init[r]
		e.addInto(&hs[r], &hs[r], &v[(5-80%5+r)%5])
	}

	var out [Width][20]byte
	for word := range hs {
		vals = Unpack32(&hs[word])
		for i := 0; i < Width; i++ {
			out[i][word*4] = byte(vals[i] >> 24)
			out[i][word*4+1] = byte(vals[i] >> 16)
			out[i][word*4+2] = byte(vals[i] >> 8)
			out[i][word*4+3] = byte(vals[i])
		}
	}
	return out
}
