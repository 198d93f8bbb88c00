//go:build amd64

package bitslice

// The CPUID probes, captured before any test forces a path.
var cpuAVX2, cpuAVX512 = haveAVX2, haveAVX512

// keccakPaths lists the Keccak round implementations this CPU can run,
// by their KeccakISA names.
func keccakPaths() []string {
	paths := []string{"portable"}
	if cpuAVX2 {
		paths = append(paths, "avx2")
	}
	if cpuAVX512 {
		paths = append(paths, "avx512")
	}
	return paths
}

// forceKeccakPath makes KeccakF256 run the named implementation (one of
// keccakPaths) and returns the function that restores CPUID's choice.
func forceKeccakPath(p string) (restore func()) {
	haveAVX2, haveAVX512 = p == "avx2", p == "avx512"
	return func() { haveAVX2, haveAVX512 = cpuAVX2, cpuAVX512 }
}
