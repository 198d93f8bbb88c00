package bitslice

import "rbcsalted/internal/keccak"

// The 256-wide Keccak kernel. Same gate decomposition as KeccakF -
// theta, rho+pi as wiring, chi, iota - but evaluated in a fused round
// that minimizes passes over the 50KB state (which no longer fits L1):
//
//	parity:  C[x] = xor of column x              (read state once)
//	mix:     D[x] = C[x-1] ^ ROTL(C[x+1], 1)     (small)
//	apply:   state[x,y] ^= D[x]                  (read+write state)
//	fused:   out[pi(x,y)] = chi over ROTL(in[x,y], rho(x,y))
//
// The fused step gathers each chi input directly from its pre-rho
// source position and ping-pongs between two states, so the permuted
// intermediate state never materializes.
//
// The flat Slice256 layout makes one bit column exactly one 256-bit
// vector register, so on amd64 with AVX2 each round runs in assembly
// with one VPXOR/VPANDN per four instances where the 64-wide kernel
// spends one scalar op per instance word. Everywhere else the same
// round runs as portable Go over the flat words.
//
// Gate counts are recorded in the same word-level unit as the 64-wide
// kernel (one count per machine-word operation) and charge the
// canonical decomposition, not the fused evaluation order - the fused
// form performs exactly the canonical number of word operations anyway,
// it just orders them to touch memory less. Gates per seed therefore
// come out identical to the 64-wide kernel and the APU cycle model is
// unaffected.

// invRhoPi[dst] names the state lane whose left-rotation by rot lands in
// lane dst of the permuted state: the gather form of rhoPi.
var invRhoPi = func() (m [25]struct{ src, rot int }) {
	for _, mv := range rhoPi {
		m[mv.dst] = struct{ src, rot int }{mv.src, mv.rot}
	}
	return
}()

// KeccakState256 is a wide bit-sliced Keccak-f[1600] state: 25 lanes,
// each held as a Slice256 of Width256 independent instances.
type KeccakState256 [25]Slice256

// KeccakISA names the round implementation KeccakF256 runs on this CPU:
// "avx512", "avx2" or "portable". Bench artifacts record it, because
// kernel throughput is only comparable between equal paths.
func KeccakISA() string {
	switch {
	case haveAVX512:
		return "avx512"
	case haveAVX2:
		return "avx2"
	default:
		return "portable"
	}
}

// KeccakF256 applies Keccak-f[1600] to all Width256 instances. Counts
// are word-level operations: 4 per gate, as each gate is applied to four
// words here.
func (e *Engine) KeccakF256(s *KeccakState256) {
	c, d := &e.wideC, &e.wideD
	cur, nxt := s, &e.wideTmp
	if haveAVX512 {
		// The AVX-512 round carries the theta parities across rounds
		// (each round's chi stores leave the next round's parities in c);
		// prime them once for round 0.
		keccakParity256AVX512(c, cur)
	}
	for round := 0; round < keccak.Rounds; round++ {
		if haveAVX512 {
			keccakRound256AVX512(nxt, cur, c, d)
		} else if haveAVX2 {
			keccakRound256AVX2(nxt, cur, c, d)
		} else {
			keccakRound256Go(nxt, cur, c, d)
		}
		e.counts.Xor += 4 * (5*64*4 + 5*64 + 25*64)
		e.counts.Not += 4 * 25 * 64
		e.counts.And += 4 * 25 * 64
		e.counts.Xor += 4 * 25 * 64

		// iota: flip the bits of lane 0 where the round constant is set.
		// Under the parity-carrying contract the same flips must land in
		// the lane's column parity, or round N+1 would see stale theta.
		rc := keccak.RoundConstant(round)
		l := &nxt[0]
		if haveAVX512 {
			c0 := &c[0]
			for z := 0; z < 64; z++ {
				if rc>>uint(z)&1 == 1 {
					l[z*4] = ^l[z*4]
					l[z*4+1] = ^l[z*4+1]
					l[z*4+2] = ^l[z*4+2]
					l[z*4+3] = ^l[z*4+3]
					c0[z*4] = ^c0[z*4]
					c0[z*4+1] = ^c0[z*4+1]
					c0[z*4+2] = ^c0[z*4+2]
					c0[z*4+3] = ^c0[z*4+3]
					e.counts.Not += 4
				}
			}
		} else {
			for z := 0; z < 64; z++ {
				if rc>>uint(z)&1 == 1 {
					l[z*4] = ^l[z*4]
					l[z*4+1] = ^l[z*4+1]
					l[z*4+2] = ^l[z*4+2]
					l[z*4+3] = ^l[z*4+3]
					e.counts.Not += 4
				}
			}
		}

		cur, nxt = nxt, cur
	}
	// keccak.Rounds is even, so the final swap leaves the result in s.
	if cur != s {
		*s = *cur
	}
}

// keccakRound256Go is the portable round: theta (leaving the D-mixed
// state in cur), then the fused rho+pi+chi gather into nxt. cur is
// scratch afterwards; nxt is fully written. The assembly round has the
// identical contract.
func keccakRound256Go(nxt, cur *KeccakState256, c, d *[5]Slice256) {
	// theta: column parities, the mix word D, then D into every lane.
	for x := 0; x < 5; x++ {
		a0, a1, a2, a3, a4 := &cur[x], &cur[x+5], &cur[x+10], &cur[x+15], &cur[x+20]
		cx := &c[x]
		for i := 0; i < 4*64; i++ {
			cx[i] = a0[i] ^ a1[i] ^ a2[i] ^ a3[i] ^ a4[i]
		}
	}
	for x := 0; x < 5; x++ {
		cm := &c[(x+4)%5]
		cp := &c[(x+1)%5]
		dx := &d[x]
		// D = C[x-1] ^ ROTL(C[x+1], 1): bit z of the rotated lane is
		// bit z-1, i.e. 4 flat words back, wrapping from the top row.
		dx[0] = cm[0] ^ cp[4*63]
		dx[1] = cm[1] ^ cp[4*63+1]
		dx[2] = cm[2] ^ cp[4*63+2]
		dx[3] = cm[3] ^ cp[4*63+3]
		for i := 4; i < 4*64; i++ {
			dx[i] = cm[i] ^ cp[i-4]
		}
	}
	for l := 0; l < 25; l++ {
		al := &cur[l]
		dl := &d[l%5]
		for i := 0; i < 4*64; i++ {
			al[i] ^= dl[i]
		}
	}

	// Fused rho + pi + chi, one output plane per pass: each chi input
	// t_x is gathered from its pre-rotation source column, so the
	// permuted state never materializes and each source lane is read
	// exactly once.
	for y := 0; y < 25; y += 5 {
		m0, m1, m2, m3, m4 := &invRhoPi[y], &invRhoPi[y+1], &invRhoPi[y+2], &invRhoPi[y+3], &invRhoPi[y+4]
		s0, s1, s2, s3, s4 := &cur[m0.src], &cur[m1.src], &cur[m2.src], &cur[m3.src], &cur[m4.src]
		o0, o1, o2, o3, o4 := &nxt[y], &nxt[y+1], &nxt[y+2], &nxt[y+3], &nxt[y+4]
		for z := 0; z < 64; z++ {
			z0 := ((z - m0.rot) & 63) * 4
			z1 := ((z - m1.rot) & 63) * 4
			z2 := ((z - m2.rot) & 63) * 4
			z3 := ((z - m3.rot) & 63) * 4
			z4 := ((z - m4.rot) & 63) * 4
			zo := z * 4
			for g := 0; g < 4; g++ {
				t0 := s0[z0+g]
				t1 := s1[z1+g]
				t2 := s2[z2+g]
				t3 := s3[z3+g]
				t4 := s4[z4+g]
				o0[zo+g] = t0 ^ (^t1 & t2)
				o1[zo+g] = t1 ^ (^t2 & t3)
				o2[zo+g] = t2 ^ (^t3 & t4)
				o3[zo+g] = t3 ^ (^t4 & t0)
				o4[zo+g] = t4 ^ (^t0 & t1)
			}
		}
	}
}

// SHA3Seeds256Wide hashes Width256 32-byte seeds with SHA3-256 in one
// wide bit-sliced permutation, using the same fixed padding as
// keccak.Sum256Seed (see SHA3Seeds256).
func (e *Engine) SHA3Seeds256Wide(seeds *[Width256][32]byte) [Width256][32]byte {
	lanes := e.SHA3Seeds256WideSliced(seeds)
	var out [Width256][32]byte
	for lane := range lanes {
		vals := Unpack256(&lanes[lane])
		for i := 0; i < Width256; i++ {
			putLEUint64(out[i][lane*8:], vals[i])
		}
	}
	return out
}

// SHA3Seeds256WideSliced is SHA3Seeds256Wide without the final unpack:
// the four rate lanes that form the 256-bit digest are returned still in
// wide bit-sliced form. The batched host matcher compares in this
// domain, skipping the unpack entirely.
func (e *Engine) SHA3Seeds256WideSliced(seeds *[Width256][32]byte) [4]Slice256 {
	var vals [4][Width256]uint64
	for lane := 0; lane < 4; lane++ {
		for i := 0; i < Width256; i++ {
			vals[lane][i] = leUint64(seeds[i][lane*8:])
		}
	}
	var msg [4]Slice256
	for lane := range msg {
		msg[lane] = Pack256(&vals[lane])
	}
	return e.SHA3Msg256WideSliced(&msg)
}

// The constant (non-message) lanes of the wide seed-hashing state: the
// SHA-3 domain/padding byte in lane 4 and the final padding bit closing
// the rate in lane 16, splatted across all Width256 instances. Package
// constants because they are identical for every compression — read-only
// after init, safe to share across engines.
var (
	splatDomain256 = Splat256(uint64(keccak.DomainSHA3))
	splatPad256    = Splat256(0x80 << 56)
)

// SHA3Msg256WideSliced runs the wide fixed-padding SHA3-256 compression
// over message lanes already resident in sliced form, leaving msg
// intact. No request runs it since the host search moved to
// keccak.SeedDigests8 (DESIGN.md §11); the wire-to-wire benchmark still
// times it as the sliced design's compression cost. The permutation
// state is engine scratch (KeccakF256 destroys its input, so the
// message lanes are copied in and the constant lanes re-splatted each
// call — ~50KB of writes).
func (e *Engine) SHA3Msg256WideSliced(msg *[4]Slice256) [4]Slice256 {
	s := &e.wideMsg
	s[0], s[1], s[2], s[3] = msg[0], msg[1], msg[2], msg[3]
	s[4] = splatDomain256
	clear(s[5:16])
	s[16] = splatPad256
	clear(s[17:25])

	e.KeccakF256(s)

	return [4]Slice256{s[0], s[1], s[2], s[3]}
}
