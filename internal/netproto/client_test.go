package netproto

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"rbcsalted/internal/core"
)

// encodeHelloV4 builds the v4 hello a client built when the CA could be
// sharded sends: the v3 layout with its ring epoch before the id.
func encodeHelloV4(h Hello, epoch uint64) []byte {
	out := make([]byte, helloV4Header, helloV4Header+len(h.ClientID))
	out[0], out[1], out[2] = helloV3Marker, helloV4Version, byte(h.Class)
	if !h.Deadline.IsZero() {
		binary.BigEndian.PutUint64(out[3:11], uint64(h.Deadline.UnixNano()))
	}
	binary.BigEndian.PutUint64(out[11:19], epoch)
	return append(out, h.ClientID...)
}

// TestHelloV4RoundTrip: a v4 hello from an older ring-aware client
// decodes with its epoch ignored, and the hello it decodes to round
// trips through the v3 layout, the newest the encoder writes.
func TestHelloV4RoundTrip(t *testing.T) {
	h := Hello{ClientID: "alice", Class: core.ClassBatch, Deadline: time.Unix(0, 1754550000123456789)}
	enc := encodeHelloV4(h, 7)
	if len(enc) != helloV4Header+len(h.ClientID) {
		t.Fatalf("v4 hello is %d bytes", len(enc))
	}
	dec, err := DecodeHello(enc)
	if err != nil || dec.ClientID != h.ClientID || dec.Class != h.Class || !dec.Deadline.Equal(h.Deadline) {
		t.Fatalf("v4 hello decoded to %+v, %v", dec, err)
	}
	again := EncodeHello(dec)
	if again[0] != helloV3Marker || again[1] != helloV3Version {
		t.Fatalf("re-encoded hello is not v3: % x", again[:2])
	}
	if back, err := DecodeHello(again); err != nil || back.ClientID != h.ClientID || back.Class != h.Class || !back.Deadline.Equal(h.Deadline) {
		t.Fatalf("v3 round trip: %+v, %v", back, err)
	}
	// Default QoS keeps the v2 layout, a deadline alone v3.
	if enc := EncodeHello(Hello{ClientID: "alice"}); enc[0] == helloV3Marker {
		t.Fatal("default hello no longer v2")
	}
	if enc := EncodeHello(Hello{ClientID: "alice", Deadline: time.Unix(1, 0)}); enc[1] != helloV3Version {
		t.Fatal("deadline-only hello no longer v3")
	}
	// A v4 hello cut inside its header is rejected.
	if _, err := DecodeHello(enc[:helloV4Header-1]); err == nil {
		t.Fatal("truncated v4 hello accepted")
	}
}

// countingDialer dials the address behind each configured name, or
// fails for a name marked down, and logs every dial.
type countingDialer struct {
	mu    sync.Mutex
	real  map[string]string
	down  map[string]bool
	dials []string
}

func (d *countingDialer) dial(ctx context.Context, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.dials = append(d.dials, addr)
	real, down := d.real[addr], d.down[addr]
	d.mu.Unlock()
	if down {
		return nil, errors.New("connection refused")
	}
	var nd net.Dialer
	return nd.DialContext(ctx, "tcp", real)
}

func (d *countingDialer) log() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.dials...)
}

// TestClientStaysOnSurvivor: when the address that served the client
// goes down, the client fails over to the next one, and its next
// authentication dials the survivor first instead of the dead address.
func TestClientStaysOnSurvivor(t *testing.T) {
	server, device, _ := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	d := &countingDialer{
		real: map[string]string{"first": ln.Addr().String(), "second": ln.Addr().String()},
		down: map[string]bool{},
	}
	c, err := Dial(ClientConfig{
		Addrs:        []string{"first", "second"},
		RetryBackoff: time.Millisecond,
		DialContext:  d.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	auth := func(what string) {
		t.Helper()
		if res, err := c.Authenticate(ctx, AuthRequest{Device: device}); err != nil || !res.Authenticated {
			t.Fatalf("%s: %+v, %v", what, res, err)
		}
	}
	auth("first auth")
	d.mu.Lock()
	d.down["first"] = true
	d.mu.Unlock()
	auth("failover auth")
	auth("auth after failover")
	want := []string{"first", "first", "second", "second"}
	if got := d.log(); !slices.Equal(got, want) {
		t.Fatalf("dials %v, want %v", got, want)
	}
}

// TestClientStatus8IsFinal: status 8 was the removed shard ring's
// wrong-shard redirect. A server built before the removal still sends
// it; the client returns it as a final ServerError and does not redial.
func TestClientStatus8IsFinal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := ReadFrame(conn); err == nil {
				_ = WriteFrame(conn, MsgError, EncodeError(8, "10.9.9.9:999"))
			}
			conn.Close()
		}
	}()
	_, device, _ := newServer(t)
	d := &countingDialer{real: map[string]string{"old": ln.Addr().String()}}
	c, err := Dial(ClientConfig{Addrs: []string{"old", "old"}, DialContext: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.Authenticate(ctx, AuthRequest{Device: device})
	var se *ServerError
	if !errors.As(err, &se) || se.Status != 8 || se.Status.String() != "status-8" {
		t.Fatalf("status 8 = %v, want a final status-8 ServerError", err)
	}
	if n := len(d.log()); n != 1 {
		t.Fatalf("client dialed %d times on a status-8 verdict, want 1", n)
	}
}

// TestClientRetriesAcrossRestart: the first dial lands on a dead
// address; the client backs off and fails over to the live one — the
// rolling-restart behaviour in miniature.
func TestClientRetriesAcrossRestart(t *testing.T) {
	server, device, _ := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	// A dead address: listen and immediately close, so dialing fails fast.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	c, err := Dial(ClientConfig{
		Addrs:        []string{deadAddr, ln.Addr().String()},
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Authenticate(ctx, AuthRequest{Device: device})
	if err != nil || !res.Authenticated {
		t.Fatalf("failover auth: %+v, %v", res, err)
	}
}

// TestClientAuthoritativeErrorsAreFinal: a non-redirect server verdict
// is returned immediately, not retried against other nodes.
func TestClientAuthoritativeErrorsAreFinal(t *testing.T) {
	server, _, _ := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	_, ghost, _ := newServer(t) // enrolled on its own CA, unknown here
	ghost.ID = "ghost"
	c, err := Dial(ClientConfig{Addrs: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.Authenticate(ctx, AuthRequest{Device: ghost})
	var se *ServerError
	if !errors.As(err, &se) || se.Status != StatusUnknownClient {
		t.Fatalf("unknown client = %v, want StatusUnknownClient", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("authoritative error was retried")
	}
}

// TestDialValidation pins the constructor's error paths and defaults.
func TestDialValidation(t *testing.T) {
	if _, err := Dial(ClientConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	c, err := Dial(ClientConfig{Addrs: []string{"x:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Authenticate(context.Background(), AuthRequest{}); err == nil {
		t.Fatal("nil device accepted")
	}
}
