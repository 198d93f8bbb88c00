//go:build !amd64

package bitslice

// Off amd64 the portable round is the only Keccak implementation.
func keccakPaths() []string { return []string{"portable"} }

func forceKeccakPath(string) (restore func()) { return func() {} }
