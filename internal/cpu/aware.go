package cpu

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cryptoalg"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/u256"
)

// AwareBackend implements the ORIGINAL, algorithm-aware RBC search the
// paper improves on (§3): every candidate seed is run through public-key
// generation and the resulting key compared to the client's. It exists as
// the Table 7 baseline - key generation per seed is why the prior-work
// engines are dramatically slower than RBC-SALTED for PQC algorithms.
type AwareBackend struct {
	// Keygen generates the per-candidate public keys.
	Keygen cryptoalg.KeyGenerator
	// Workers is the thread count; 0 means GOMAXPROCS.
	Workers int
}

// AwareTask describes one algorithm-aware RBC search.
type AwareTask struct {
	// Base is S_init from the server's PUF image.
	Base u256.Uint256
	// TargetKey is the public key received from the client.
	TargetKey []byte
	// MaxDistance, Method, Exhaustive, CheckInterval and TimeLimit have
	// the same meaning as in core.Task.
	MaxDistance   int
	Method        iterseq.Method
	Exhaustive    bool
	CheckInterval int
	TimeLimit     time.Duration
}

// Name identifies the engine.
func (b *AwareBackend) Name() string {
	return fmt.Sprintf("RBC-%s(p=%d)", b.Keygen.Name(), b.workers())
}

func (b *AwareBackend) workers() int {
	return (&Backend{Workers: b.Workers}).workers()
}

// Search runs the algorithm-aware search, generating a key per candidate:
// core.SearchHost with the key comparison as both base probe and
// matcher. Result.HashesExecuted counts key generations. It follows the
// same cancellation contract as core.Backend.Search.
func (b *AwareBackend) Search(ctx context.Context, task AwareTask) (core.Result, error) {
	if len(task.TargetKey) == 0 {
		return core.Result{}, fmt.Errorf("cpu: aware search needs a target key")
	}
	// Key generators are concurrency-safe, so every worker shares the
	// same scalar predicate; there is no batch form for keygen.
	match := func(candidate u256.Uint256) bool {
		return bytes.Equal(b.Keygen.PublicKey(candidate.Bytes()), task.TargetKey)
	}
	return core.SearchHost(ctx, core.Task{
		Base:          task.Base,
		MaxDistance:   task.MaxDistance,
		Method:        task.Method,
		Exhaustive:    task.Exhaustive,
		CheckInterval: task.CheckInterval,
		TimeLimit:     task.TimeLimit,
	}, b.Name(), b.workers(), match, core.MatchFuncFactory(match))
}
