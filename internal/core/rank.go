package core

import (
	"fmt"

	"rbcsalted/internal/combin"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/u256"
)

// A data-parallel RBC search over lockstep lanes is fully determined by
// where the matching combination falls in the chosen iteration order.
// The modelled engines (internal/device) place that event analytically
// from the task's oracle with MatchShell and MatchRank, then charge the
// covered seeds with their own cost models. The match itself is always
// re-verified by hashing.

// MatchShell returns the Hamming distance between base and the oracle
// seed.
func MatchShell(base, oracle u256.Uint256) int {
	return base.HammingDistance(oracle)
}

// MatchRank returns the rank, in the given method's order, of the
// combination of bit positions where base and oracle differ. It is the
// event-model primitive that lets simulators place the match without
// enumerating the shell.
func MatchRank(method iterseq.Method, base, oracle u256.Uint256) (uint64, error) {
	diff := base.Xor(oracle)
	k := diff.OnesCount()
	c := make([]int, 0, k)
	for i := 0; i < 256; i++ {
		if diff.Bit(i) == 1 {
			c = append(c, i)
		}
	}
	switch method {
	case iterseq.GrayCode:
		return iterseq.GrayRank(256, c)
	case iterseq.Alg515, iterseq.Mifsud154:
		return combin.RankLex(256, c)
	case iterseq.Gosper:
		return combin.RankColex(256, c)
	default:
		return 0, fmt.Errorf("core: no ranking for method %v", method)
	}
}
