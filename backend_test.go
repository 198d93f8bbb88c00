package rbc_test

// Tests for the unified NewBackend constructor: every kind must
// construct and actually search, and the spec's fields must reach the
// underlying engines.

import (
	"context"
	"strings"
	"testing"

	"rbcsalted"
)

// backendTask builds a small searchable task: a client seed one bit off
// the server's image, findable within distance 2.
func backendTask(t *testing.T, alg rbc.HashAlg) (rbc.Task, rbc.Seed) {
	t.Helper()
	var base rbc.Seed
	base = base.FlipBit(3).FlipBit(200)
	client := base.FlipBit(17)
	return rbc.Task{
		Base:        base,
		Target:      rbc.HashSeed(alg, client),
		MaxDistance: 2,
	}, client
}

func TestNewBackendConstructsAllKinds(t *testing.T) {
	task, client := backendTask(t, rbc.SHA3)
	kinds := []rbc.BackendKind{rbc.BackendCPU, rbc.BackendGPU, rbc.BackendAPU, rbc.BackendPlanner}
	for _, kind := range kinds {
		b, err := rbc.NewBackend(rbc.BackendSpec{Kind: kind, Alg: rbc.SHA3, Cores: 2})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		res, err := b.Search(context.Background(), task)
		if err != nil {
			t.Fatalf("%v: search: %v", kind, err)
		}
		if !res.Found || !res.Seed.Equal(client) {
			t.Fatalf("%v: wrong result %+v", kind, res)
		}
	}
}

func TestNewBackendRejectsBadSpecs(t *testing.T) {
	if _, err := rbc.NewBackend(rbc.BackendSpec{Kind: rbc.BackendKind(42)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := rbc.NewBackend(rbc.BackendSpec{Kind: rbc.BackendCPU, Cores: -1}); err == nil {
		t.Fatal("negative cores accepted")
	}
	if _, err := rbc.NewBackend(rbc.BackendSpec{Kind: rbc.BackendGPU, Devices: -2}); err == nil {
		t.Fatal("negative devices accepted")
	}
}

func TestParseBackendKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want rbc.BackendKind
	}{
		{"cpu", rbc.BackendCPU},
		{"gpu", rbc.BackendGPU},
		{"apu", rbc.BackendAPU},
		{"planner", rbc.BackendPlanner},
	} {
		got, err := rbc.ParseBackendKind(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackendKind(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	// "cluster" is no engine either: it is refused like any other unknown
	// name, so rbc-server's -backend flag rejects it at parse time.
	for _, in := range []string{"tpu", "cluster"} {
		if _, err := rbc.ParseBackendKind(in); err == nil ||
			!strings.Contains(err.Error(), "unknown backend kind") {
			t.Fatalf("ParseBackendKind(%s) = %v", in, err)
		}
	}
}
