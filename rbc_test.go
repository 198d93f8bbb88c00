package rbc

// Integration tests exercising the public façade exactly as a downstream
// user would: full protocol flows across all three search engines.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// mustBackend builds an engine through NewBackend; none of the specs the
// tests use can fail.
func mustBackend(tb testing.TB, spec BackendSpec) Backend {
	tb.Helper()
	b, err := NewBackend(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func demoProfile() PUFProfile {
	return PUFProfile{BaseError: 0.5 / 256.0, FlakyFraction: 0.05, FlakyError: 0.35}
}

func TestPublicAPIProtocolRoundTrip(t *testing.T) {
	dev, err := NewPUFDevice(1, 1024, demoProfile())
	if err != nil {
		t.Fatal(err)
	}
	image, err := EnrollPUF(dev, 31)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewImageStore([32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewCA(store, &CPUBackend{Alg: SHA3}, &AESKeyGenerator{}, NewRA(),
		CAConfig{MaxDistance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll("alice", image); err != nil {
		t.Fatal(err)
	}
	client := &PUFClient{ID: "alice", Device: dev}
	ch, err := ca.BeginHandshake("alice")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := client.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ca.Authenticate(context.Background(), AuthRequest{Client: "alice", Nonce: ch.Nonce, M1: m1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Authenticated {
		t.Fatalf("authentication failed: %+v", res.Search)
	}
}

func TestPublicAPIBackendsAgree(t *testing.T) {
	base, client := scenario(21, 2)
	oracle := client
	task := Task{
		Base:        base,
		Target:      HashSeed(SHA3, client),
		MaxDistance: 2,
		Oracle:      &oracle,
	}
	for _, b := range conformanceEngines(t, SHA3, task.MaxDistance) {
		res, err := b.Search(context.Background(), task)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !res.Found || !res.Seed.Equal(client) || res.Distance != 2 {
			t.Errorf("%s: found=%v distance=%d", b.Name(), res.Found, res.Distance)
		}
	}
}

func TestPublicAPIKeyGenerators(t *testing.T) {
	seed := [32]byte{42}
	gens := []KeyGenerator{&AESKeyGenerator{}, SaberKeyGenerator{}, DilithiumKeyGenerator{}}
	sizes := []int{32, 672, 1952}
	for i, g := range gens {
		pk := g.PublicKey(seed)
		if len(pk) != sizes[i] {
			t.Errorf("%s: key size %d, want %d", g.Name(), len(pk), sizes[i])
		}
	}
}

func TestPublicAPISalting(t *testing.T) {
	base, _ := scenario(31, 1)
	salted := SaltSeed(base, 113)
	if salted.Equal(base) {
		t.Error("salt is a no-op")
	}
	if HashSeed(SHA3, salted).Equal(HashSeed(SHA3, base)) {
		t.Error("salted digest equals raw digest")
	}
}

func TestPublicAPINetworkedFlow(t *testing.T) {
	dev, err := NewPUFDevice(5, 1024, demoProfile())
	if err != nil {
		t.Fatal(err)
	}
	image, err := EnrollPUF(dev, 31)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewImageStore([32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewCA(store, &CPUBackend{Alg: SHA3}, &AESKeyGenerator{}, NewRA(),
		CAConfig{MaxDistance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll("bob", image); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := &Server{CA: ca}
	go server.Serve(ln)
	defer server.Close()

	client, err := Dial(ClientConfig{Addrs: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Authenticate(context.Background(), ClientAuthRequest{
		Device: &PUFClient{ID: "bob", Device: dev},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Authenticated {
		t.Fatalf("networked authentication failed: %+v", res)
	}
}

func TestPaperLatencyExported(t *testing.T) {
	if PaperLatency.CommSeconds() != 0.90 {
		t.Errorf("PaperLatency = %.2fs", PaperLatency.CommSeconds())
	}
}

func TestShellStatsConsistent(t *testing.T) {
	base, client := scenario(77, 2)
	oracle := client
	task := Task{
		Base:        base,
		Target:      HashSeed(SHA3, client),
		MaxDistance: 3,
		Exhaustive:  true,
		Oracle:      &oracle,
	}
	for _, b := range conformanceEngines(t, SHA3, task.MaxDistance) {
		res, err := b.Search(context.Background(), task)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if len(res.Shells) != 3 {
			t.Errorf("%s: %d shell stats, want 3", b.Name(), len(res.Shells))
			continue
		}
		var covered uint64
		var seconds float64
		for i, sh := range res.Shells {
			if sh.Distance != i+1 {
				t.Errorf("%s: shell %d has distance %d", b.Name(), i, sh.Distance)
			}
			covered += sh.SeedsCovered
			seconds += sh.DeviceSeconds
		}
		// Shells plus the distance-0 probe account for all coverage.
		if covered+1 != res.SeedsCovered {
			t.Errorf("%s: shells cover %d, result says %d", b.Name(), covered+1, res.SeedsCovered)
		}
		if seconds > res.DeviceSeconds+1e-9 {
			t.Errorf("%s: shell seconds %.4f exceed total %.4f", b.Name(), seconds, res.DeviceSeconds)
		}
	}
}

// TestServerNodeCloseBeforeServe: closing a node whose Serve and
// ServeReplication goroutines have not run yet must stop both — each
// closes the listener it is handed and returns.
func TestServerNodeCloseBeforeServe(t *testing.T) {
	node, err := NewServer(ServerConfig{MaxDistance: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	for name, serve := range map[string]func(net.Listener) error{
		"Serve":            node.Serve,
		"ServeReplication": node.ServeReplication,
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- serve(ln) }()
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("%s on a closed node: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			ln.Close()
			t.Fatalf("%s on a closed node is still accepting", name)
		}
		if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s left its listener open: Accept err = %v", name, err)
		}
	}
}

// TestServerNodeCloseStopsFollow: Close must stop a running Follow and
// wait for it before the durable state takes its final snapshot (a
// follower still ingesting would race the cut), and Follow on a closed
// node must return at once.
func TestServerNodeCloseStopsFollow(t *testing.T) {
	primary, err := NewServer(ServerConfig{MaxDistance: 1, DataDir: t.TempDir(), Clients: []string{"alice"}})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go primary.ServeReplication(replLn)

	standby, err := NewServer(ServerConfig{MaxDistance: 1, DataDir: t.TempDir(), NodeID: "standby"})
	if err != nil {
		t.Fatal(err)
	}
	followed := make(chan error, 1)
	go func() { followed <- standby.Follow(context.Background(), replLn.Addr().String(), nil) }()
	// Wait until the follower is demonstrably ingesting.
	for deadline := time.Now().Add(10 * time.Second); !standby.State.Images().Has("alice"); {
		if time.Now().After(deadline) {
			t.Fatal("standby never received the enrollment")
		}
		time.Sleep(time.Millisecond)
	}
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-followed:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Follow stopped by Close returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close returned but Follow is still running")
	}
	if err := standby.Follow(context.Background(), replLn.Addr().String(), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Follow on a closed node returned %v, want context.Canceled", err)
	}
}
