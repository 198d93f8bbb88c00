package rbc_test

// Tests for the unified NewBackend constructor: every kind must
// construct and actually search, and the spec's fields must reach the
// underlying engines.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

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

func TestNewBackendCluster(t *testing.T) {
	reg := rbc.NewMetricsRegistry()
	b, err := rbc.NewBackend(rbc.BackendSpec{
		Kind:              rbc.BackendCluster,
		Alg:               rbc.SHA3,
		Fallback:          &rbc.CPUBackend{Alg: rbc.SHA3, Workers: 2},
		Metrics:           reg,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, ok := b.(*rbc.ClusterCoordinator)
	if !ok {
		t.Fatalf("cluster kind returned %T", b)
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)

	stop := make(chan struct{})
	defer close(stop)
	go rbc.RunClusterWorker(ln.Addr().String(), &rbc.ClusterWorker{Cores: 2}, stop)
	if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	task, client := backendTask(t, rbc.SHA3)
	res, err := coord.Search(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.Seed.Equal(client) {
		t.Fatalf("wrong result %+v", res)
	}
	if st := coord.Stats(); st.Workers != 1 {
		t.Fatalf("stats %+v, want 1 worker", st)
	}
}

func TestNewBackendClusterFallbackWithoutFleet(t *testing.T) {
	b, err := rbc.NewBackend(rbc.BackendSpec{
		Kind:     rbc.BackendCluster,
		Alg:      rbc.SHA1,
		Fallback: &rbc.CPUBackend{Alg: rbc.SHA1, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := b.(*rbc.ClusterCoordinator)
	defer coord.Close()

	task, client := backendTask(t, rbc.SHA1)
	res, err := coord.Search(context.Background(), task)
	if err != nil {
		t.Fatalf("degraded search: %v", err)
	}
	if !res.Found || !res.Seed.Equal(client) {
		t.Fatalf("wrong result %+v", res)
	}
	if !coord.Degraded() {
		t.Fatal("empty fleet should report degraded")
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
		{"cluster", rbc.BackendCluster},
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
	if _, err := rbc.ParseBackendKind("tpu"); err == nil ||
		!strings.Contains(err.Error(), "unknown backend kind") {
		t.Fatalf("ParseBackendKind(tpu) = %v", err)
	}
}

func TestClusterErrorsExported(t *testing.T) {
	coord := rbc.NewClusterCoordinator(rbc.ClusterConfig{Alg: rbc.SHA1})
	coord.Close()
	task, _ := backendTask(t, rbc.SHA1)
	_, err := coord.Search(context.Background(), task)
	if !errors.Is(err, rbc.ErrClusterClosed) {
		t.Fatalf("search after close: %v", err)
	}
	if rbc.ErrProtoVersion == nil {
		t.Fatal("ErrProtoVersion not exported")
	}
}
