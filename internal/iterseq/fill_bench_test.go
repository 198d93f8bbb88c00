package iterseq

import (
	"testing"

	"rbcsalted/internal/u256"
)

// BenchmarkFillMasks prices each iteration method's candidate-mask fill
// over the d=2 shell, in isolation from hashing: this is the per-seed
// cost the batched host search pays before the batch kernel sees the
// candidates. The alg515 row is why
// that iterator stays far below the kernel's throughput: its fill alone
// costs several hashes per seed.
func BenchmarkFillMasks(b *testing.B) {
	for _, m := range Methods() {
		b.Run(m.String(), func(b *testing.B) {
			var dst [256]u256.Uint256
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mi, err := New(m, 256, 2, 0, 32640)
				if err != nil {
					b.Fatal(err)
				}
				for mi.FillMasks(dst[:]) == len(dst) {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/32640, "ns/seed")
		})
	}
}
