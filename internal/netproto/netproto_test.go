package netproto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cpu"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/sched"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello world")
	if err := WriteFrame(&buf, MsgHello, payload); err != nil {
		t.Fatal(err)
	}
	msgType, got, err := ReadFrame(&buf)
	if err != nil || msgType != MsgHello || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: %v %d %q", err, msgType, got)
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, make([]byte, maxFrame)); err == nil {
		t.Error("oversized frame accepted")
	}
	// Corrupt length header.
	bad := bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	if _, _, err := ReadFrame(bad); err == nil {
		t.Error("oversized incoming frame accepted")
	}
	zero := bytes.NewReader([]byte{0, 0, 0, 0})
	if _, _, err := ReadFrame(zero); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Truncated payload.
	trunc := bytes.NewReader([]byte{0, 0, 0, 5, 1, 2})
	if _, _, err := ReadFrame(trunc); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestChallengeCodec(t *testing.T) {
	addr := make([]int, 256)
	for i := range addr {
		addr[i] = i * 3
	}
	enc, err := EncodeChallenge(Challenge{Nonce: 42, Alg: 1, AddressMap: addr})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeChallenge(enc)
	if err != nil || dec.Nonce != 42 || dec.Alg != 1 {
		t.Fatalf("decode failed: %+v, %v", dec, err)
	}
	for i := range addr {
		if dec.AddressMap[i] != addr[i] {
			t.Fatalf("address %d corrupted", i)
		}
	}
	if _, err := EncodeChallenge(Challenge{AddressMap: make([]int, 10)}); err == nil {
		t.Error("short address map accepted")
	}
	addr[0] = 1 << 20
	if _, err := EncodeChallenge(Challenge{AddressMap: addr}); err == nil {
		t.Error("oversized cell index accepted")
	}
	if _, err := DecodeChallenge(make([]byte, 5)); err == nil {
		t.Error("short challenge accepted")
	}
}

func TestDigestAndResultCodecs(t *testing.T) {
	d := DigestMsg{Nonce: 7, Digest: bytes.Repeat([]byte{0xAB}, 32)}
	got, err := DecodeDigest(EncodeDigest(d))
	if err != nil || got.Nonce != 7 || !bytes.Equal(got.Digest, d.Digest) {
		t.Fatalf("digest codec: %+v %v", got, err)
	}
	if _, err := DecodeDigest(make([]byte, 10)); err == nil {
		t.Error("short digest accepted")
	}

	r := Result{Authenticated: true, TimedOut: false, SearchSeconds: 1.25, PublicKey: []byte{1, 2, 3}}
	rd, err := DecodeResult(EncodeResult(r))
	if err != nil || !rd.Authenticated || rd.TimedOut || rd.SearchSeconds != 1.25 ||
		!bytes.Equal(rd.PublicKey, r.PublicKey) {
		t.Fatalf("result codec: %+v %v", rd, err)
	}
	if _, err := DecodeResult(make([]byte, 3)); err == nil {
		t.Error("short result accepted")
	}
}

func TestHelloValidation(t *testing.T) {
	if _, err := DecodeHello(nil); err == nil {
		t.Error("empty hello accepted")
	}
	if _, err := DecodeHello(make([]byte, 300)); err == nil {
		t.Error("oversized hello accepted")
	}
}

// newServer assembles a CA on the real CPU backend with a low-noise PUF.
func newServer(t *testing.T) (*Server, *core.Client, *core.RA) {
	t.Helper()
	store, err := core.NewImageStore([32]byte{5})
	if err != nil {
		t.Fatal(err)
	}
	ra := core.NewRA()
	backend := &cpu.Backend{Alg: core.SHA3, Workers: 2}
	ca, err := core.NewCA(store, backend, &aeskg.Generator{}, ra, core.CAConfig{
		Alg:         core.SHA3,
		MaxDistance: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := puf.NewDevice(101, 1024, puf.Profile{BaseError: 0.5 / 256.0})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 31)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll("alice", im); err != nil {
		t.Fatal(err)
	}
	return &Server{CA: ca}, &core.Client{ID: "alice", Device: dev}, ra
}

func TestEndToEndOverTCP(t *testing.T) {
	server, client, ra := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res, err := Authenticate(conn, client, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Authenticated {
		t.Fatalf("authentication failed: %+v", res)
	}
	if len(res.PublicKey) == 0 {
		t.Error("no public key returned")
	}
	raKey, ok := ra.PublicKey("alice")
	if !ok || !bytes.Equal(raKey, res.PublicKey) {
		t.Error("RA key does not match wire key")
	}
}

func TestUnknownClientRejected(t *testing.T) {
	server, client, _ := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ghost := &core.Client{ID: "ghost", Device: client.Device}
	if _, err := Authenticate(conn, ghost, Latency{}); err == nil ||
		!strings.Contains(err.Error(), "not enrolled") {
		t.Errorf("expected enrollment error, got %v", err)
	}
}

func TestGarbageConnection(t *testing.T) {
	server, _, _ := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a digest before a hello.
	WriteFrame(conn, MsgDigest, EncodeDigest(DigestMsg{Nonce: 1, Digest: make([]byte, 32)}))
	msgType, payload, err := ReadFrame(conn)
	if err != nil || msgType != MsgError {
		t.Errorf("expected error frame, got type %d (%v)", msgType, err)
	}
	if len(payload) == 0 {
		t.Error("empty error message")
	}
}

// TestStatusMapping pins the sentinel-error to wire-status translation,
// including errors wrapped deeper in the chain.
func TestStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want Status
	}{
		{core.ErrUnknownClient, StatusUnknownClient},
		{fmt.Errorf("core: handshake: client %q not enrolled: %w", "x", core.ErrUnknownClient), StatusUnknownClient},
		{core.ErrNoSession, StatusNoSession},
		{fmt.Errorf("%w for %q", core.ErrNoSession, "x"), StatusNoSession},
		{core.ErrAlgMismatch, StatusAlgMismatch},
		{sched.ErrOverloaded, StatusOverloaded},
		{context.Canceled, StatusCancelled},
		{context.DeadlineExceeded, StatusCancelled},
		{errors.New("disk on fire"), StatusInternal},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestErrorCodecRoundTrip(t *testing.T) {
	for _, s := range []Status{StatusInternal, StatusOverloaded, StatusCancelled} {
		status, msg := DecodeError(EncodeError(s, "why"))
		if status != s || msg != "why" {
			t.Errorf("round trip of %v: got (%v, %q)", s, status, msg)
		}
	}
	if status, msg := DecodeError(nil); status != StatusInternal || msg == "" {
		t.Errorf("empty payload: got (%v, %q)", status, msg)
	}
}

// TestServerErrorCarriesWireStatus runs a failing authentication over
// real TCP and checks the client receives a typed *ServerError with the
// right status, not just an opaque string.
func TestServerErrorCarriesWireStatus(t *testing.T) {
	server, client, _ := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ghost := &core.Client{ID: "ghost", Device: client.Device}
	_, err = Authenticate(conn, ghost, Latency{})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expected *ServerError, got %T: %v", err, err)
	}
	if se.Status != StatusUnknownClient {
		t.Errorf("Status = %v, want %v", se.Status, StatusUnknownClient)
	}
}

// TestServerReportsOverloaded puts a zero-capacity scheduler behind the
// CA and expects the wire to carry StatusOverloaded once the pool is
// saturated.
func TestServerReportsOverloaded(t *testing.T) {
	store, err := core.NewImageStore([32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	// A scheduler whose single worker is wedged by a backend that blocks
	// until its context is cancelled: every queued slot fills and the
	// next search is shed.
	release := make(chan struct{})
	wedge := blockedBackend{release: release}
	pool := sched.New(wedge, sched.Config{Workers: 1, QueueDepth: 1})
	defer close(release)
	defer pool.Close()
	ca, err := core.NewCA(store, pool, &aeskg.Generator{}, core.NewRA(), core.CAConfig{
		Alg:         core.SHA3,
		MaxDistance: 2,
		// The inline fast path would authenticate this low-noise device
		// at d <= 1 without touching the wedged scheduler; the test is
		// about the scheduler's overload signal reaching the wire.
		InlineDepth: core.InlineDisabled,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := puf.NewDevice(300, 1024, puf.Profile{BaseError: 0.5 / 256.0})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 31)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll("alice", im); err != nil {
		t.Fatal(err)
	}
	server := &Server{CA: ca}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	// Saturate: the worker first, then the queue slot — submitted
	// together, the second search can find the first still queued and be
	// shed instead.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadline := time.Now().Add(5 * time.Second)
	for _, saturated := range []func(sched.Stats) bool{
		func(s sched.Stats) bool { return s.InFlight >= 1 },
		func(s sched.Stats) bool { return s.Queued >= 1 },
	} {
		go pool.Search(ctx, core.Task{})
		for !saturated(pool.Stats()) {
			if time.Now().After(deadline) {
				t.Fatal("scheduler never saturated")
			}
			time.Sleep(time.Millisecond)
		}
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client := &core.Client{ID: "alice", Device: dev}
	_, err = Authenticate(conn, client, Latency{})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expected *ServerError, got %T: %v", err, err)
	}
	if se.Status != StatusOverloaded {
		t.Errorf("Status = %v, want %v", se.Status, StatusOverloaded)
	}
}

// TestClientDisconnectCancelsSearch: a client that vanishes mid-search
// must not keep burning the backend — the server's connection watchdog
// cancels the per-connection context, which propagates into Search.
func TestClientDisconnectCancelsSearch(t *testing.T) {
	store, err := core.NewImageStore([32]byte{11})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	bk := watchedBackend{entered: entered, cancelled: cancelled}
	ca, err := core.NewCA(store, bk, &aeskg.Generator{}, core.NewRA(), core.CAConfig{
		Alg:         core.SHA3,
		MaxDistance: 2,
		// Disable the inline fast path: the disconnect watchdog is only
		// observable while the search is parked inside the backend.
		InlineDepth: core.InlineDisabled,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := puf.NewDevice(400, 1024, puf.Profile{BaseError: 0.5 / 256.0})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 31)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll("alice", im); err != nil {
		t.Fatal(err)
	}
	server := &Server{CA: ca}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Run the protocol up to the digest, by hand.
	if err := WriteFrame(conn, MsgHello, EncodeHello(Hello{ClientID: "alice"})); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := ReadFrame(conn)
	if err != nil || msgType != MsgChallenge {
		t.Fatalf("expected challenge, got type %d (%v)", msgType, err)
	}
	wire, err := DecodeChallenge(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, MsgDigest, EncodeDigest(DigestMsg{
		Nonce:  wire.Nonce,
		Digest: make([]byte, 32),
	})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("search never started")
	}
	// The client walks away mid-search.
	conn.Close()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("search not cancelled after client disconnect")
	}
}

// watchedBackend reports when a search starts and when its context
// fires.
type watchedBackend struct{ entered, cancelled chan struct{} }

func (b watchedBackend) Name() string { return "watched" }

func (b watchedBackend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	b.entered <- struct{}{}
	<-ctx.Done()
	b.cancelled <- struct{}{}
	return core.Result{}, ctx.Err()
}

// blockedBackend parks every search until release closes or ctx fires.
type blockedBackend struct{ release chan struct{} }

func (b blockedBackend) Name() string { return "blocked" }

func (b blockedBackend) Search(ctx context.Context, task core.Task) (core.Result, error) {
	select {
	case <-b.release:
		return core.Result{}, nil
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

func TestPaperLatencyConstant(t *testing.T) {
	if got := PaperLatency.CommSeconds(); got != 0.9 {
		t.Errorf("paper latency = %.3fs, want 0.90s", got)
	}
}

func TestLatencyInjection(t *testing.T) {
	server, client, _ := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lat := Latency{PUFRead: 50 * time.Millisecond, RTT: 20 * time.Millisecond}
	start := time.Now()
	res, err := Authenticate(conn, client, lat)
	if err != nil || !res.Authenticated {
		t.Fatalf("auth failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("latency injection missing: %v", elapsed)
	}
}

// TestCloseBeforeServe: a server closed before its Serve goroutine ran
// has no listener to close yet; Serve must notice, close the listener it
// is handed and return, instead of accepting on it forever.
func TestCloseBeforeServe(t *testing.T) {
	server := &Server{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- server.Serve(ln) }()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve on a closed server: %v", err)
		}
	case <-time.After(5 * time.Second):
		ln.Close()
		t.Fatal("Serve on a closed server is still accepting")
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener left open: Accept err = %v", err)
	}
}
