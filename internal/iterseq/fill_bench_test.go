package iterseq

import (
	"testing"

	"rbcsalted/internal/u256"
)

// BenchmarkFillMasks prices each iteration method's candidate-mask fill
// over the d=2 shell, in isolation from hashing: this is the per-seed
// cost the batched host search pays before the batch kernel sees the
// candidates, and the floor it imposes on end-to-end throughput. The
// alg515 row is why the wide SHA-3 kernel cannot reach its batch-bound
// throughput on that iterator - the fill alone costs several kernel
// compressions per batch.
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
				for FillMasks(mi, dst[:]) == len(dst) {
				}
			}
		})
	}
}
