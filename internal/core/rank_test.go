package core

import (
	"testing"

	"rbcsalted/internal/u256"
)

func TestMatchShell(t *testing.T) {
	base := u256.FromUint64(0)
	if MatchShell(base, base) != 0 {
		t.Error("distance to self != 0")
	}
	if MatchShell(base, base.FlipBit(5).FlipBit(100)) != 2 {
		t.Error("distance wrong")
	}
}
