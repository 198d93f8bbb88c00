// Package puf models Physical Unclonable Functions as the RBC protocol
// consumes them: a client-side device whose cells produce slightly erratic
// bits, a server-side enrollment image captured in a secure facility, and
// the TAPKI ternary masking that hides high-error cells so the RBC search
// stays tractable.
//
// The protocol is agnostic to the underlying PUF hardware (paper §2.1);
// what matters is the statistical behaviour - which bits flip and how
// often - so the model is parameterized by a per-cell error-rate profile.
// All randomness is drawn from an explicit seeded generator, making every
// experiment reproducible.
package puf

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"rbcsalted/internal/u256"
)

// SeedBits is the width of the bit stream the protocol hashes.
const SeedBits = 256

// Cell is one PUF cell: a stable underlying value plus the probability
// that a read returns the flipped value.
type Cell struct {
	Value   bool
	ErrRate float64
}

// Profile describes the statistical quality of a PUF's cells.
type Profile struct {
	// BaseError is the per-read flip probability of a typical cell.
	BaseError float64
	// FlakyFraction is the fraction of cells that are unstable.
	FlakyFraction float64
	// FlakyError is the per-read flip probability of an unstable cell.
	FlakyError float64
}

// DefaultProfile mirrors the paper's working assumption: a typical read
// differs from the enrollment image by about 5 bits out of 256
// (BaseError ~ 5/256), with a minority of clearly bad cells that TAPKI
// must mask out.
var DefaultProfile = Profile{
	BaseError:     5.0 / 256.0,
	FlakyFraction: 0.05,
	FlakyError:    0.35,
}

// Device is a client-side PUF: an array of cells read with noise.
type Device struct {
	cells []Cell
	rng   *rand.Rand
}

// NewDevice manufactures a PUF with numCells cells under the given
// profile. The seed determines both the cell values and all subsequent
// read noise, so a device is fully reproducible.
func NewDevice(seed uint64, numCells int, p Profile) (*Device, error) {
	if numCells < SeedBits {
		return nil, fmt.Errorf("puf: device needs at least %d cells, got %d", SeedBits, numCells)
	}
	if p.BaseError < 0 || p.BaseError >= 0.5 || p.FlakyError < 0 || p.FlakyError >= 0.5 ||
		p.FlakyFraction < 0 || p.FlakyFraction > 1 {
		return nil, errors.New("puf: profile rates must be in [0, 0.5) and fraction in [0, 1]")
	}
	rng := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15))
	cells := make([]Cell, numCells)
	for i := range cells {
		cells[i].Value = rng.Uint64()&1 == 1
		if rng.Float64() < p.FlakyFraction {
			cells[i].ErrRate = p.FlakyError
		} else {
			cells[i].ErrRate = p.BaseError
		}
	}
	return &Device{cells: cells, rng: rng}, nil
}

// NumCells returns the number of cells in the device.
func (d *Device) NumCells() int { return len(d.cells) }

// ReadCell returns one noisy read of cell i: one draw from the device's
// generator, which flips the cell's value with probability ErrRate.
func (d *Device) ReadCell(i int) bool {
	c := d.cells[i]
	return c.Value != (d.rng.Float64() < c.ErrRate)
}

// ReadSeed reads the 256 cells named by addressMap (in order) and packs
// them into a candidate seed, bit j holding cell addressMap[j]. This is
// the client-side operation of Figure 1: read the PUF at the address
// specified by the CA.
func (d *Device) ReadSeed(addressMap []int) (u256.Uint256, error) {
	if len(addressMap) != SeedBits {
		return u256.Zero, fmt.Errorf("puf: address map has %d cells, want %d", len(addressMap), SeedBits)
	}
	var limbs [4]uint64
	for j, cell := range addressMap {
		if uint(cell) >= uint(len(d.cells)) {
			return u256.Zero, fmt.Errorf("puf: cell index %d out of range", cell)
		}
		limbs[j>>6] |= uint64(b2u(d.ReadCell(cell))) << (uint(j) & 63)
	}
	return u256.New(limbs[0], limbs[1], limbs[2], limbs[3]), nil
}

// Image is the server-side enrollment record of one device: the majority
// value of each cell and its observed instability, captured over repeated
// reads in the secure enrollment facility.
type Image struct {
	Values      []bool
	Instability []float64 // observed flip fraction per cell
}

// Enroll reads every cell of the device `reads` times and records the
// majority value and flip fraction. RBC enrollment happens once, in a
// secure facility, before the device is deployed.
func Enroll(d *Device, reads int) (*Image, error) {
	if reads < 1 {
		return nil, errors.New("puf: enrollment needs at least one read")
	}
	im := &Image{
		Values:      make([]bool, d.NumCells()),
		Instability: make([]float64, d.NumCells()),
	}
	for i := range d.cells {
		ones := 0
		for r := 0; r < reads; r++ {
			ones += int(b2u(d.ReadCell(i)))
		}
		im.Values[i] = ones*2 >= reads
		minority := ones
		if im.Values[i] {
			minority = reads - ones
		}
		im.Instability[i] = float64(minority) / float64(reads)
	}
	return im, nil
}

// TernaryMask returns the TAPKI address map: the indices of cells whose
// observed instability is below threshold, in ascending order. Cells above
// the threshold are the "ternary" cells masked out of key material.
func (im *Image) TernaryMask(threshold float64) []int {
	return im.appendStable(make([]int, 0, len(im.Instability)), threshold)
}

// appendStable appends to dst the indices TernaryMask returns. It
// writes every index and keeps it by advancing past it only when the
// cell is stable, so a mixed image costs no mispredicted branches.
func (im *Image) appendStable(dst []int, threshold float64) []int {
	n := len(dst)
	dst = slices.Grow(dst, len(im.Instability))[:n+len(im.Instability)]
	for i, inst := range im.Instability {
		dst[n] = i
		n += int(b2u(inst < threshold))
	}
	return dst[:n]
}

// SelectAddressMap picks 256 stable cells for a session, pseudo-randomly
// from the TAPKI-stable set using the session nonce, so each handshake can
// use a fresh PUF address (the one-time-key property of §2.1). It fails if
// fewer than 256 stable cells exist.
//
// The draw is a partial Fisher–Yates: 256 swaps over a pooled scratch of
// the stable cells' indices, each position uniform over the cells not yet
// drawn. The returned map has its own 256-entry array - the session table
// holds it for the session's lifetime - and is the only allocation.
func (im *Image) SelectAddressMap(threshold float64, nonce uint64) ([]int, error) {
	sp, _ := stableScratch.Get().(*[]int)
	if sp == nil || cap(*sp) < len(im.Instability) {
		s := make([]int, 0, len(im.Instability))
		sp = &s
	}
	defer stableScratch.Put(sp)
	stable := im.appendStable((*sp)[:0], threshold)
	if len(stable) < SeedBits {
		return nil, fmt.Errorf("puf: only %d stable cells, need %d", len(stable), SeedBits)
	}
	var src rand.PCG
	src.Seed(nonce, 0xD1B54A32D192ED03)
	out := make([]int, SeedBits)
	for i := range out {
		j := i + int(uint64n(&src, uint64(len(stable)-i)))
		stable[i], stable[j] = stable[j], stable[i]
		out[i] = stable[i]
	}
	return out, nil
}

// stableScratch holds SelectAddressMap's stable-cell index buffers.
var stableScratch sync.Pool

// uint64n returns a uniform draw from [0, n) by Lemire's multiply-shift
// with rejection. src is the concrete PCG rather than a rand.Rand, which
// would take it behind an interface and onto the heap.
func uint64n(src *rand.PCG, n uint64) uint64 {
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		for thresh := -n % n; lo < thresh; {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// Seed packs the enrolled values of the cells in addressMap into the
// server-side S_init used to anchor the RBC search: bit j holds cell
// addressMap[j].
func (im *Image) Seed(addressMap []int) (u256.Uint256, error) {
	if len(addressMap) != SeedBits {
		return u256.Zero, fmt.Errorf("puf: address map has %d cells, want %d", len(addressMap), SeedBits)
	}
	var limbs [4]uint64
	for j, cell := range addressMap {
		if uint(cell) >= uint(len(im.Values)) {
			return u256.Zero, fmt.Errorf("puf: cell index %d out of range", cell)
		}
		limbs[j>>6] |= uint64(b2u(im.Values[cell])) << (uint(j) & 63)
	}
	return u256.New(limbs[0], limbs[1], limbs[2], limbs[3]), nil
}

// InjectNoise flips additional uniformly chosen bits of clientSeed until
// it sits at exactly target Hamming distance from serverSeed, reproducing
// the paper's §4.1 procedure ("if the error rate is lower, we perform
// noise injection on the client to ensure that we have flipped 5 bits").
// If the distance already exceeds target, the seed is returned unchanged.
func InjectNoise(clientSeed, serverSeed u256.Uint256, target int, rng *rand.Rand) u256.Uint256 {
	for clientSeed.HammingDistance(serverSeed) < target {
		bit := rng.IntN(SeedBits)
		if clientSeed.Bit(bit) == serverSeed.Bit(bit) {
			clientSeed = clientSeed.FlipBit(bit)
		}
	}
	return clientSeed
}
