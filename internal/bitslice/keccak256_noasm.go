//go:build !amd64

package bitslice

// The feature flags are constant-false off amd64, so the portable
// round is statically selected and the assembly stubs below are dead
// code.
const (
	haveAVX2   = false
	haveAVX512 = false
)

func keccakRound256AVX2(nxt, cur *KeccakState256, c, d *[5]Slice256) {
	panic("bitslice: vector Keccak round is amd64-only")
}

func keccakRound256AVX512(nxt, cur *KeccakState256, c, d *[5]Slice256) {
	panic("bitslice: vector Keccak round is amd64-only")
}

func keccakParity256AVX512(c *[5]Slice256, cur *KeccakState256) {
	panic("bitslice: vector Keccak round is amd64-only")
}
