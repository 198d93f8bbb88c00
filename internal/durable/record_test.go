package durable

import (
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/device"
)

// TestRecordEncodeAllocatesOnce: Encode sizes its buffer once, so a
// SessionOpen — an empty blob beside a full address map, the record the
// handshake journals — costs exactly one allocation, as does a lease.
func TestRecordEncodeAllocatesOnce(t *testing.T) {
	if device.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	addr := make([]int, 256)
	for i := range addr {
		addr[i] = 4*i + 1
	}
	for _, rec := range []*Record{
		{Op: OpSessionOpen, ID: "client-000123", Challenge: &core.Challenge{
			Nonce: 1 << 33, AddressMap: addr, Alg: core.SHA3, IssuedAt: time.Unix(0, 1),
		}},
		{Op: OpNonceLease, Lease: 1 << 20},
	} {
		var p []byte
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if p, err = rec.Encode(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: Encode made %.0f allocations, want 1", rec.Op, allocs)
		}
		if len(p) != cap(p) {
			t.Errorf("%s: %d-byte payload in a %d-byte buffer", rec.Op, len(p), cap(p))
		}
	}
}
