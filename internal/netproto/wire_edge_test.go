package netproto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/cryptoalg/aeskg"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/puf"
	"rbcsalted/internal/sched"
)

// TestReadFrameEdgeCases tables the hostile-input contract of the frame
// reader: every malformed input is an error, every minimal valid frame
// parses, and nothing panics.
func TestReadFrameEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		input   []byte
		wantErr bool
		wantTyp byte
		wantLen int
	}{
		{name: "empty input", input: nil, wantErr: true},
		{name: "truncated header", input: []byte{0, 0}, wantErr: true},
		{name: "zero-length frame", input: []byte{0, 0, 0, 0}, wantErr: true},
		{name: "oversized length", input: []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}, wantErr: true},
		{name: "length just over max", input: append([]byte{0, 1, 0, 1}, make([]byte, maxFrame+1)...), wantErr: true},
		{name: "truncated payload", input: []byte{0, 0, 0, 5, MsgHello, 'a', 'b'}, wantErr: true},
		{name: "header only, no body", input: []byte{0, 0, 0, 3}, wantErr: true},
		{name: "minimal frame (type only)", input: []byte{0, 0, 0, 1, MsgResult}, wantTyp: MsgResult, wantLen: 0},
		{name: "type plus payload", input: []byte{0, 0, 0, 3, MsgHello, 'h', 'i'}, wantTyp: MsgHello, wantLen: 2},
		{name: "length exactly max", input: append([]byte{0, 1, 0, 0, MsgDigest}, make([]byte, maxFrame-1)...), wantTyp: MsgDigest, wantLen: maxFrame - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			typ, payload, err := ReadFrame(bytes.NewReader(tc.input))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parsed as type %d with %d payload bytes, want error", typ, len(payload))
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if typ != tc.wantTyp || len(payload) != tc.wantLen {
				t.Errorf("got type %d len %d, want type %d len %d", typ, len(payload), tc.wantTyp, tc.wantLen)
			}
		})
	}
}

// TestEncodeErrorTruncatesOversizedMessage is the regression test for
// the error-frame bug: a server error message larger than one frame
// used to make WriteFrame fail, so the client never saw the status byte
// and hung until EOF. EncodeError must truncate so the frame always
// ships.
func TestEncodeErrorTruncatesOversizedMessage(t *testing.T) {
	huge := strings.Repeat("x", maxFrame+1000)
	payload := EncodeError(StatusOverloaded, huge)

	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgError, payload); err != nil {
		t.Fatalf("error frame with oversized message failed to write: %v", err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != MsgError {
		t.Fatalf("read back: type %d, err %v", typ, err)
	}
	status, msg := DecodeError(got)
	if status != StatusOverloaded {
		t.Errorf("status = %v, want overloaded", status)
	}
	if len(msg) != MaxErrorMsg {
		t.Errorf("message length = %d, want truncated to %d", len(msg), MaxErrorMsg)
	}
	if !strings.HasPrefix(huge, msg) {
		t.Error("truncated message is not a prefix of the original")
	}

	// Short messages are untouched.
	status, msg = DecodeError(EncodeError(StatusNoSession, "gone"))
	if status != StatusNoSession || msg != "gone" {
		t.Errorf("short message mangled: %v %q", status, msg)
	}
}

// TestClientReceivesStatusForOversizedServerError drives the client
// codepath end to end: a server that reports a failure with a message
// bigger than a frame must still deliver the status byte; the client
// returns a *ServerError instead of hanging on a dead connection.
func TestClientReceivesStatusForOversizedServerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := ReadFrame(conn); err != nil { // hello
			return
		}
		_ = WriteFrame(conn, MsgError,
			EncodeError(StatusUnknownClient, strings.Repeat("m", maxFrame*2)))
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// The server rejects at hello, so the client never reads its PUF —
	// no device needed.
	_, err = Authenticate(conn, &core.Client{ID: "alice"}, Latency{})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expected *ServerError, got %v", err)
	}
	if se.Status != StatusUnknownClient {
		t.Errorf("status = %v, want unknown-client", se.Status)
	}
}

// TestServerMetricsCounters runs one successful and one failed session
// against an instrumented server and checks the netproto.* counters.
func TestServerMetricsCounters(t *testing.T) {
	server, client, _ := newServer(t)
	reg := obs.NewRegistry()
	server.Metrics = NewMetrics(reg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(ln)
	defer server.Close()

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	conn := dial()
	res, err := Authenticate(conn, client, Latency{})
	conn.Close()
	if err != nil || !res.Authenticated {
		t.Fatalf("good session: %+v %v", res, err)
	}

	conn = dial()
	_, err = Authenticate(conn, &core.Client{ID: "ghost", Device: client.Device}, Latency{})
	conn.Close()
	var se *ServerError
	if !errors.As(err, &se) || se.Status != StatusUnknownClient {
		t.Fatalf("ghost session: %v", err)
	}

	waitForCounters(t, func() bool {
		snap := reg.Snapshot()
		return snap["netproto.conns_accepted"] == uint64(2) &&
			snap["netproto.conns_active"] == int64(0)
	})
	snap := reg.Snapshot()
	checks := map[string]any{
		"netproto.conns_accepted":        uint64(2),
		"netproto.conns_active":          int64(0),
		"netproto.auth_ok":               uint64(1),
		"netproto.auth_denied":           uint64(0),
		"netproto.errors.unknown-client": uint64(1),
		"netproto.errors.internal":       uint64(0),
	}
	for name, want := range checks {
		if snap[name] != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
}

// waitForCounters polls for asynchronous handler teardown (connClosed
// runs after the client sees its response).
func waitForCounters(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("counters did not converge")
		}
		time.Sleep(time.Millisecond)
	}
}

// writeCounter counts the Write calls that reach it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite: every frame, whatever its message and size,
// reaches the connection in exactly one Write — one syscall on a socket,
// and no window in which a header is out without its payload.
func TestWriteFrameIsOneWrite(t *testing.T) {
	challenge, err := EncodeChallenge(Challenge{Nonce: 1, Alg: 1, AddressMap: make([]int, 256)})
	if err != nil {
		t.Fatal(err)
	}
	frames := []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"hello", MsgHello, EncodeHello(Hello{ClientID: "alice"})},
		{"hello v4", MsgHello, encodeHelloV4(Hello{ClientID: "alice", Class: core.ClassBatch}, 7)},
		{"challenge", MsgChallenge, challenge},
		{"digest", MsgDigest, EncodeDigest(DigestMsg{Nonce: 1, Digest: make([]byte, 32)})},
		{"result", MsgResult, EncodeResult(Result{Authenticated: true, PublicKey: make([]byte, 16)})},
		{"error", MsgError, EncodeError(StatusNoSession, "core: no open session")},
		{"empty payload", MsgResult, nil},
		{"largest payload", MsgDigest, bytes.Repeat([]byte{0xA5}, maxFrame-1)},
		{"small after large", MsgHello, []byte("bob")}, // the pooled buffer is reused, not leaked into
	}
	for _, f := range frames {
		var w writeCounter
		if err := WriteFrame(&w, f.typ, f.payload); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if w.writes != 1 {
			t.Errorf("%s: %d Writes, want 1", f.name, w.writes)
		}
		if w.Len() != 5+len(f.payload) {
			t.Errorf("%s: %d bytes on the wire, want %d", f.name, w.Len(), 5+len(f.payload))
		}
		typ, payload, err := ReadFrame(&w)
		if err != nil || typ != f.typ || !bytes.Equal(payload, f.payload) {
			t.Errorf("%s: read back type %d, %d bytes, %v", f.name, typ, len(payload), err)
		}
	}
}

// countedConn counts the Write calls one end of a session makes.
type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

type countedListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{Conn: c, writes: l.writes}, nil
}

// TestSessionWritesOncePerFrame counts Writes on both ends of real
// sessions: four for an authentication (hello, challenge, digest,
// result), two for one the server refuses (hello, error).
func TestSessionWritesOncePerFrame(t *testing.T) {
	server, client, _ := newServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var serverWrites, clientWrites atomic.Int64
	go server.Serve(countedListener{Listener: ln, writes: &serverWrites})
	defer server.Close()

	session := func(device *core.Client) (Result, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		return Authenticate(countedConn{Conn: conn, writes: &clientWrites}, device, Latency{})
	}
	if res, err := session(client); err != nil || !res.Authenticated {
		t.Fatalf("authentication: %+v, %v", res, err)
	}
	if c, s := clientWrites.Load(), serverWrites.Load(); c != 2 || s != 2 {
		t.Errorf("authentication: client wrote %d times, server %d; want 2 and 2", c, s)
	}

	clientWrites.Store(0)
	serverWrites.Store(0)
	_, err = session(&core.Client{ID: "ghost", Device: client.Device})
	var se *ServerError
	if !errors.As(err, &se) || se.Status != StatusUnknownClient {
		t.Fatalf("refused session: %v", err)
	}
	if c, s := clientWrites.Load(), serverWrites.Load(); c != 1 || s != 1 {
		t.Errorf("refused session: client wrote %d times, server %d; want 1 and 1", c, s)
	}
}

// newEscalatingServer assembles a CA with no inline shells, so every
// search goes to backend, and one enrolled error-free device.
func newEscalatingServer(t *testing.T, backend core.Backend) (*Server, *core.Client) {
	t.Helper()
	store, err := core.NewImageStore([32]byte{12})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.NewCA(store, backend, &aeskg.Generator{}, core.NewRA(), core.CAConfig{
		Alg:         core.SHA3,
		MaxDistance: 2,
		InlineDepth: core.InlineDisabled,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := puf.NewDevice(401, 1024, puf.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Enroll("alice", im); err != nil {
		t.Fatal(err)
	}
	return &Server{CA: ca}, &core.Client{ID: "alice", Device: dev}
}

// TestBytesBehindTheDigestCancel: the client sends nothing between its
// digest and the result, so anything that arrives with the digest is the
// violation the server's watcher exists for — even though the buffered
// frame reader, not the connection, now holds those bytes. The search
// here never ends on its own; only the cancellation answers the client.
func TestBytesBehindTheDigestCancel(t *testing.T) {
	server, _ := newEscalatingServer(t, blockedBackend{release: make(chan struct{})})
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
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if err := WriteFrame(conn, MsgHello, EncodeHello(Hello{ClientID: "alice"})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != MsgChallenge {
		t.Fatalf("challenge: type %d, %v", typ, err)
	}
	wire, err := DecodeChallenge(payload)
	if err != nil {
		t.Fatal(err)
	}
	// The digest frame and a stray byte, in one segment.
	var both bytes.Buffer
	if err := WriteFrame(&both, MsgDigest, EncodeDigest(DigestMsg{Nonce: wire.Nonce, Digest: make([]byte, 32)})); err != nil {
		t.Fatal(err)
	}
	both.WriteByte(0xEE)
	if _, err := conn.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = ReadFrame(conn)
	if err != nil || typ != MsgError {
		t.Fatalf("reply: type %d, %v; want an error frame", typ, err)
	}
	if status, _ := DecodeError(payload); status != StatusCancelled {
		t.Errorf("status = %v, want cancelled", status)
	}
}

// TestShutdownDropsTheConnection: a search refused because the node's
// scheduler has closed is answered by closing the connection, not by an
// error frame. The Client takes an error frame as the server's
// verdict and gives up; a transport failure it retries on a live node,
// which is what lets a fleet ride out a rolling restart.
func TestShutdownDropsTheConnection(t *testing.T) {
	pool := sched.New(blockedBackend{}, sched.Config{Workers: 1, QueueDepth: 1})
	pool.Close()
	server, client := newEscalatingServer(t, pool)
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
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	_, err = Authenticate(conn, client, Latency{})
	var se *ServerError
	if err == nil || errors.As(err, &se) {
		t.Fatalf("got %v, want a transport error", err)
	}
	if !errors.Is(err, io.EOF) {
		t.Errorf("got %v, want the connection closed", err)
	}
}

// TestCloseWaitsForItsHandlers: Close closes the connections the server
// accepted and returns only once their handlers have. The handler here
// is parked in a search that never ends on its own; the loss of its
// connection cancels it, and its client sees the connection dropped, not
// a verdict.
func TestCloseWaitsForItsHandlers(t *testing.T) {
	entered, cancelled := make(chan struct{}, 1), make(chan struct{}, 1)
	server, client := newEscalatingServer(t, watchedBackend{entered: entered, cancelled: cancelled})
	server.Metrics = NewMetrics(obs.NewRegistry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- server.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	authed := make(chan error, 1)
	go func() {
		_, err := Authenticate(conn, client, Latency{})
		authed <- err
	}()
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- server.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs on the parked handler")
	}
	if n := server.Metrics.Active.Value(); n != 0 {
		t.Fatalf("Close returned with %d handler(s) still running", n)
	}
	select {
	case <-cancelled:
	default:
		t.Fatal("Close returned before the parked search was cancelled")
	}
	err = <-authed
	var se *ServerError
	if err == nil || errors.As(err, &se) {
		t.Errorf("client got %v, want a dropped connection", err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

// TestClosingServerDropsTheConnection: once the server is closed, a
// request that fails is answered by closing the connection, whatever the
// error, since it may be the shutdown's own (a WAL closed under an
// in-flight authentication). The client retries it on a node that is up.
func TestClosingServerDropsTheConnection(t *testing.T) {
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
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, MsgHello, EncodeHello(Hello{ClientID: "alice"})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || typ != MsgChallenge {
		t.Fatalf("challenge: type %d, %v", typ, err)
	}
	ch, err := DecodeChallenge(payload)
	if err != nil {
		t.Fatal(err)
	}
	server.Close()
	// A digest under the wrong nonce: an open server answers no-session.
	if err := WriteFrame(conn, MsgDigest, EncodeDigest(DigestMsg{Nonce: ch.Nonce + 1, Digest: make([]byte, 32)})); err != nil {
		t.Fatal(err)
	}
	if typ, payload, err := ReadFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("got type %d %q, %v; want the connection closed", typ, payload, err)
	}
}

// TestOversizedClaimIsRefusedAtOnce: the hello and the digest are read
// with caps at their largest legal size, so a bare header claiming 65,535
// bytes — within the 64 KiB frame cap — is refused with StatusBadRequest
// at once, not held until IdleTimeout.
func TestOversizedClaimIsRefusedAtOnce(t *testing.T) {
	claim := []byte{0, 0, 0xFF, 0xFF}
	for _, tc := range []struct {
		name  string
		hello bool // send a hello and read the challenge first
	}{
		{"hello", false},
		{"digest", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, _, _ := newServer(t)
			server.IdleTimeout = 10 * time.Second
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
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			if tc.hello {
				if err := WriteFrame(conn, MsgHello, EncodeHello(Hello{ClientID: "alice"})); err != nil {
					t.Fatal(err)
				}
				if typ, _, err := ReadFrame(conn); err != nil || typ != MsgChallenge {
					t.Fatalf("challenge: type %d, %v", typ, err)
				}
			}
			if _, err := conn.Write(claim); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := ReadFrame(conn)
			if err != nil || typ != MsgError {
				t.Fatalf("reply to a 65,535-byte claim: type %d, %v; want an error frame", typ, err)
			}
			if status, _ := DecodeError(payload); status != StatusBadRequest {
				t.Errorf("status = %v, want bad-request", status)
			}
		})
	}
}

// TestStalledPeersAreDropped: a peer that dribbles its hello slower than
// IdleTimeout, or sends half a frame header and stalls, loses its
// connection at IdleTimeout, and the goroutine handling it exits.
func TestStalledPeersAreDropped(t *testing.T) {
	var hello bytes.Buffer
	if err := WriteFrame(&hello, MsgHello, EncodeHello(Hello{ClientID: "alice"})); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sent  []byte
		every time.Duration // between bytes
	}{
		{"slow hello", hello.Bytes(), 40 * time.Millisecond},
		{"half a header", []byte{0, 0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, _, _ := newServer(t)
			server.IdleTimeout = 100 * time.Millisecond
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go server.Serve(ln)
			defer server.Close()
			baseline := runtime.NumGoroutine()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				for _, b := range tc.sent {
					if _, err := conn.Write([]byte{b}); err != nil {
						return
					}
					time.Sleep(tc.every)
				}
			}()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = io.ReadAll(conn)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("connection still open 5 s after a 100 ms IdleTimeout")
			}
			<-sent
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d before the peer connected", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
