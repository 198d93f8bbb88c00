package bitslice

import "rbcsalted/internal/keccak"

// KeccakState is a bit-sliced Keccak-f[1600] state: 25 lanes, each held as
// a Slice64 of Width independent instances.
type KeccakState [25]Slice64

// rhoPi[i] describes one lane's rho+pi move: state lane src rotated left
// by rot lands in lane dst of the permuted state. Precomputed so the hot
// loop is two memmoves per lane instead of per-bit modular indexing.
var rhoPi = func() (m [25]struct{ src, dst, rot int }) {
	i := 0
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			m[i].src = x + 5*y
			m[i].dst = y + 5*((2*x+3*y)%5)
			m[i].rot = int(keccak.RotationOffset(x, y))
			i++
		}
	}
	return
}()

// KeccakF applies Keccak-f[1600] to all Width instances, gate by gate.
// Rotations (rho) and lane permutation (pi) re-index bits and cost
// nothing; theta, chi and iota are counted as XOR/AND/NOT gates.
//
// The decomposition is the canonical one the APU cycle model charges for
// (and the gate counts record exactly that), but the evaluation order is
// arranged for the host: loop-invariant lane pointers, rotations as two
// block copies, and the chi row unrolled so all five lanes of a plane are
// combined in one pass.
func (e *Engine) KeccakF(s *KeccakState) {
	for round := 0; round < keccak.Rounds; round++ {
		// theta: column parities, then mix into every lane.
		var c [5]Slice64
		for x := 0; x < 5; x++ {
			a0, a1, a2, a3, a4 := &s[x], &s[x+5], &s[x+10], &s[x+15], &s[x+20]
			cx := &c[x]
			for z := 0; z < 64; z++ {
				cx[z] = a0[z] ^ a1[z] ^ a2[z] ^ a3[z] ^ a4[z]
			}
		}
		var d Slice64
		for x := 0; x < 5; x++ {
			cm := &c[(x+4)%5]
			cp := &c[(x+1)%5]
			// D = C[x-1] ^ ROTL(C[x+1], 1): bit z of the rotated lane is
			// bit z-1.
			d[0] = cm[0] ^ cp[63]
			for z := 1; z < 64; z++ {
				d[z] = cm[z] ^ cp[z-1]
			}
			l0, l1, l2, l3, l4 := &s[x], &s[x+5], &s[x+10], &s[x+15], &s[x+20]
			for z := 0; z < 64; z++ {
				dz := d[z]
				l0[z] ^= dz
				l1[z] ^= dz
				l2[z] ^= dz
				l3[z] ^= dz
				l4[z] ^= dz
			}
		}
		e.counts.Xor += 5*64*4 + 5*64 + 25*64

		// rho + pi: pure wiring. A left-rotation by r maps bit z to bit
		// z+r, i.e. dst[r:] = src[:64-r] and dst[:r] = src[64-r:].
		var b KeccakState
		for _, mv := range rhoPi {
			src, dst := &s[mv.src], &b[mv.dst]
			copy(dst[mv.rot:], src[:64-mv.rot])
			copy(dst[:mv.rot], src[64-mv.rot:])
		}

		// chi: a = b ^ (^b1 & b2), one plane (five lanes) per pass.
		for y := 0; y < 25; y += 5 {
			b0, b1, b2, b3, b4 := &b[y], &b[y+1], &b[y+2], &b[y+3], &b[y+4]
			s0, s1, s2, s3, s4 := &s[y], &s[y+1], &s[y+2], &s[y+3], &s[y+4]
			for z := 0; z < 64; z++ {
				t0, t1, t2, t3, t4 := b0[z], b1[z], b2[z], b3[z], b4[z]
				s0[z] = t0 ^ (^t1 & t2)
				s1[z] = t1 ^ (^t2 & t3)
				s2[z] = t2 ^ (^t3 & t4)
				s3[z] = t3 ^ (^t4 & t0)
				s4[z] = t4 ^ (^t0 & t1)
			}
		}
		e.counts.Not += 25 * 64
		e.counts.And += 25 * 64
		e.counts.Xor += 25 * 64

		// iota: flip the bits of lane 0 where the round constant is set.
		rc := keccak.RoundConstant(round)
		l := &s[0]
		for z := 0; z < 64; z++ {
			if rc>>uint(z)&1 == 1 {
				l[z] = ^l[z]
				e.counts.Not++
			}
		}
	}
}

// SHA3Seeds256 hashes Width 32-byte seeds with SHA3-256 in one bit-sliced
// permutation, using the same fixed padding as keccak.Sum256Seed: the seed
// fills lanes 0-3, lane 4 carries the 0x06 domain suffix, and lane 16's
// top bit is the closing pad bit.
func (e *Engine) SHA3Seeds256(seeds *[Width][32]byte) [Width][32]byte {
	var s KeccakState
	var vals [Width]uint64
	for lane := 0; lane < 4; lane++ {
		for i := 0; i < Width; i++ {
			vals[i] = leUint64(seeds[i][lane*8:])
		}
		s[lane] = Pack(&vals)
	}
	s[4] = Splat(uint64(keccak.DomainSHA3))
	s[16] = Splat(0x80 << 56)

	e.KeccakF(&s)

	var out [Width][32]byte
	for lane := 0; lane < 4; lane++ {
		vals = Unpack(&s[lane])
		for i := 0; i < Width; i++ {
			putLEUint64(out[i][lane*8:], vals[i])
		}
	}
	return out
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLEUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}
