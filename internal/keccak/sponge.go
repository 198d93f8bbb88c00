package keccak

import "encoding/binary"

// Domain-separation suffixes appended before padding (FIPS 202 §6).
const (
	dsSHA3  = 0x06
	dsSHAKE = 0x1f
)

// Sponge is a Keccak[1600] sponge with a configurable rate and domain
// suffix. It implements the absorb/squeeze cycle shared by the SHA-3
// hashes and the SHAKE XOFs. The zero value is not valid; use newSponge
// or one of the exported constructors.
type Sponge struct {
	a         [25]uint64
	rate      int // bytes absorbed/squeezed per permutation
	ds        byte
	buf       [200]byte // partial-block staging area
	n         int       // bytes buffered (absorbing) or already squeezed (squeezing)
	squeezing bool
}

func newSponge(rate int, ds byte) *Sponge {
	return &Sponge{rate: rate, ds: ds}
}

// NewSHA3_256 returns a sponge computing SHA3-256 (rate 136).
func NewSHA3_256() *Sponge { return newSponge(136, dsSHA3) }

// NewSHA3_512 returns a sponge computing SHA3-512 (rate 72).
func NewSHA3_512() *Sponge { return newSponge(72, dsSHA3) }

// NewSHAKE128 returns the SHAKE128 extendable-output function (rate 168).
func NewSHAKE128() *Sponge { return newSponge(168, dsSHAKE) }

// NewSHAKE256 returns the SHAKE256 extendable-output function (rate 136).
func NewSHAKE256() *Sponge { return newSponge(136, dsSHAKE) }

// Reset returns the sponge to its initial empty state.
func (s *Sponge) Reset() {
	s.a = [25]uint64{}
	s.n = 0
	s.squeezing = false
}

// Write absorbs p. It panics if called after squeezing has begun, which
// indicates a protocol bug in the caller.
func (s *Sponge) Write(p []byte) (int, error) {
	if s.squeezing {
		panic("keccak: Write after Read")
	}
	n := len(p)
	for len(p) > 0 {
		c := copy(s.buf[s.n:s.rate], p)
		s.n += c
		p = p[c:]
		if s.n == s.rate {
			s.absorbBlock()
		}
	}
	return n, nil
}

func (s *Sponge) absorbBlock() {
	for i := 0; i < s.rate/8; i++ {
		s.a[i] ^= binary.LittleEndian.Uint64(s.buf[i*8:])
	}
	permute(&s.a)
	s.n = 0
}

// pad applies the domain suffix and the 10*1 pad, then permutes, leaving
// the sponge ready to squeeze.
func (s *Sponge) pad() {
	for i := s.n; i < s.rate; i++ {
		s.buf[i] = 0
	}
	s.buf[s.n] = s.ds
	s.buf[s.rate-1] |= 0x80
	for i := 0; i < s.rate/8; i++ {
		s.a[i] ^= binary.LittleEndian.Uint64(s.buf[i*8:])
	}
	permute(&s.a)
	s.squeezing = true
	s.n = 0
}

// Read squeezes len(p) bytes of output. The first call finalizes
// absorption. It never fails.
func (s *Sponge) Read(p []byte) (int, error) {
	if !s.squeezing {
		s.pad()
	}
	n := len(p)
	for len(p) > 0 {
		if s.n == s.rate {
			permute(&s.a)
			s.n = 0
		}
		avail := s.rate - s.n
		take := len(p)
		if take > avail {
			take = avail
		}
		for i := 0; i < take; i++ {
			p[i] = byte(s.a[(s.n+i)/8] >> (8 * uint((s.n+i)%8)))
		}
		s.n += take
		p = p[take:]
	}
	return n, nil
}

// Sum256 returns the SHA3-256 digest of data.
func Sum256(data []byte) [32]byte {
	s := NewSHA3_256()
	s.Write(data)
	var out [32]byte
	s.Read(out[:])
	return out
}

// Sum512 returns the SHA3-512 digest of data.
func Sum512(data []byte) [64]byte {
	s := NewSHA3_512()
	s.Write(data)
	var out [64]byte
	s.Read(out[:])
	return out
}

// SumSHAKE128 returns n bytes of SHAKE128 output for data.
func SumSHAKE128(data []byte, n int) []byte {
	s := NewSHAKE128()
	s.Write(data)
	out := make([]byte, n)
	s.Read(out)
	return out
}

// SumSHAKE256 returns n bytes of SHAKE256 output for data.
func SumSHAKE256(data []byte, n int) []byte {
	s := NewSHAKE256()
	s.Write(data)
	out := make([]byte, n)
	s.Read(out)
	return out
}

// Sum256Seed returns the SHA3-256 digest of a 32-byte seed via a single
// permutation with precomputed padding (paper §3.2.2). A 32-byte message
// fits one 136-byte rate block: lanes 0..3 carry the seed, lane 4's low
// byte is the 0x06 domain suffix, and lane 16's top byte is the final pad
// bit. No buffering, no length bookkeeping, no conditionals. It runs the
// unrolled permutation (permuteUnrolled, the portable SeedDigests8 body),
// so it is also the scalar reference the batch kernels are measured
// against; FuzzSum256SeedVsStdlib pins it to crypto/sha3.
func Sum256Seed(seed *[32]byte) [32]byte {
	a := [25]uint64{
		0:  binary.LittleEndian.Uint64(seed[0:8]),
		1:  binary.LittleEndian.Uint64(seed[8:16]),
		2:  binary.LittleEndian.Uint64(seed[16:24]),
		3:  binary.LittleEndian.Uint64(seed[24:32]),
		4:  dsSHA3,
		16: 0x80 << 56,
	}
	permuteUnrolled(&a)
	var out [32]byte
	binary.LittleEndian.PutUint64(out[0:8], a[0])
	binary.LittleEndian.PutUint64(out[8:16], a[1])
	binary.LittleEndian.PutUint64(out[16:24], a[2])
	binary.LittleEndian.PutUint64(out[24:32], a[3])
	return out
}
