package cpu_test

// An external test: package device imports cpu, so only cpu_test can
// hold the paper's EPYC model next to the real engine.

import (
	"context"
	"math/rand/v2"
	"testing"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/device"
	"rbcsalted/internal/iterseq"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/u256"
)

func TestModelAgreesWithRealBackendAtSmallScale(t *testing.T) {
	// The EPYC model (device.NewEPYC) and the real engine must find the
	// same seed at the same distance (times differ: one is modelled EPYC,
	// one is this host).
	r := rand.New(rand.NewPCG(21, 22))
	base := u256.New(r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
	client := puf.InjectNoise(base, base, 2, r)
	task := core.Task{
		Base:        base,
		Target:      core.HashSeed(core.SHA3, client),
		MaxDistance: 3,
		Method:      iterseq.Gosper,
		Oracle:      &client,
	}
	real := &cpu.Backend{Alg: core.SHA3, Workers: 4}
	model := device.NewEPYC(core.SHA3, cpu.MeasureHostCosts())
	rr, err := real.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := model.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Found != mr.Found || !rr.Seed.Equal(mr.Seed) || rr.Distance != mr.Distance {
		t.Errorf("real %+v vs model %+v disagree", rr, mr)
	}
}
