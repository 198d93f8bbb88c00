package netproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/sched"
	"rbcsalted/internal/wire"
)

// Latency injects the paper's modelled communication costs: the PUF USB
// read on the client and the WAN round-trip. Zero values mean measure the
// real transport only.
type Latency struct {
	PUFRead time.Duration
	RTT     time.Duration
}

// PaperLatency reproduces the 0.90 s communication constant of Table 5:
// the protocol makes three traversals (hello/challenge, digest, result)
// plus the client's USB PUF read.
var PaperLatency = Latency{PUFRead: 300 * time.Millisecond, RTT: 400 * time.Millisecond}

// CommSeconds returns the end-to-end communication time the latency model
// adds to one authentication (1.5 RTT spread over the three messages plus
// the PUF read).
func (l Latency) CommSeconds() float64 {
	return (l.PUFRead + l.RTT + l.RTT/2).Seconds()
}

// Server serves the RBC-SALTED protocol for one certificate authority.
//
// Each connection gets its own context, cancelled when the session ends,
// and the server threads it into CA.Authenticate — so a backend search
// (or a scheduler queue slot) is released as soon as its session is torn
// down. Protocol failures carry a wire Status (see statusFor) instead of
// opaque strings.
type Server struct {
	CA *core.CA
	// IdleTimeout bounds each read; zero means 30 s.
	IdleTimeout time.Duration
	// BaseContext, when set, parents every per-connection context;
	// cancelling it aborts all in-flight searches. Nil means Background.
	BaseContext context.Context
	// Metrics, when set, collects per-connection and per-status counters
	// (see NewMetrics). Nil disables collection.
	Metrics *Metrics

	acceptor wire.Acceptor
}

// Serve accepts connections until the listener closes (wire.Acceptor).
// On a server that has already been closed it closes ln and returns nil.
func (s *Server) Serve(ln net.Listener) error {
	return s.acceptor.Serve(ln, s.handle)
}

// Close stops the listener — the one Serve is using or, when Serve has
// not run yet, the one it is about to be given.
func (s *Server) Close() error {
	return s.acceptor.Close()
}

func (s *Server) idle() time.Duration {
	if s.IdleTimeout > 0 {
		return s.IdleTimeout
	}
	return 30 * time.Second
}

// statusFor maps the sentinel errors of core and sched to wire status
// codes; anything unrecognised is StatusInternal.
func statusFor(err error) Status {
	switch {
	case errors.Is(err, core.ErrUnknownClient):
		return StatusUnknownClient
	case errors.Is(err, core.ErrNoSession):
		return StatusNoSession
	case errors.Is(err, core.ErrAlgMismatch):
		return StatusAlgMismatch
	case errors.Is(err, sched.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, sched.ErrDeadlineInfeasible):
		return StatusDeadlineInfeasible
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return StatusCancelled
	default:
		return StatusInternal
	}
}

// handle runs one authentication session over the connection.
func (s *Server) handle(conn net.Conn) {
	s.Metrics.connOpened()
	defer s.Metrics.connClosed()
	defer conn.Close()
	base := s.BaseContext
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()

	fail := func(status Status, msg string) {
		s.Metrics.errorSent(status)
		_ = WriteFrame(conn, MsgError, EncodeError(status, msg))
	}
	failErr := func(err error) {
		if errors.Is(err, sched.ErrClosed) || s.acceptor.Closed() {
			// The node is shutting down under the request, so the error
			// may be the shutdown's own (a closed scheduler or WAL). An
			// error frame would be a verdict the client must accept; a
			// dropped connection is a transport failure, which a Client
			// retries on a node that is up (the consumed challenge is
			// simply re-issued).
			return
		}
		fail(statusFor(err), err.Error())
	}

	br := getFrameReader(conn)
	defer putFrameReader(br)

	conn.SetDeadline(time.Now().Add(s.idle()))
	msgType, payload, err := wire.Read(br, maxHelloFrame)
	if err != nil || msgType != MsgHello {
		fail(StatusBadRequest, "expected hello")
		return
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		fail(StatusBadRequest, err.Error())
		return
	}
	ch, err := s.CA.BeginHandshake(core.ClientID(hello.ClientID))
	if err != nil {
		failErr(err)
		return
	}
	encoded, err := EncodeChallenge(Challenge{
		Nonce:      ch.Nonce,
		Alg:        byte(ch.Alg),
		AddressMap: ch.AddressMap,
	})
	if err != nil {
		failErr(err)
		return
	}
	if err := WriteFrame(conn, MsgChallenge, encoded); err != nil {
		return
	}

	conn.SetDeadline(time.Now().Add(s.idle()))
	msgType, payload, err = wire.Read(br, maxDigestFrame)
	if err != nil || msgType != MsgDigest {
		fail(StatusBadRequest, "expected digest")
		return
	}
	dm, err := DecodeDigest(payload)
	if err != nil {
		fail(StatusBadRequest, err.Error())
		return
	}
	digest, err := core.DigestFromBytes(ch.Alg, dm.Digest)
	if err != nil {
		fail(StatusBadRequest, err.Error())
		return
	}

	// The client sends nothing between the digest and the result, so a
	// read completing here — EOF, reset, or protocol-violating bytes —
	// means the session is gone: cancel the search and release the
	// worker slot instead of finishing work nobody will read. Bytes that
	// arrived with the digest sit in br, where a read of conn would not
	// see them; they are the same violation.
	if br.Buffered() > 0 {
		cancel()
	} else {
		conn.SetReadDeadline(time.Time{})
		go func() {
			var one [1]byte
			conn.Read(one[:])
			cancel()
		}()
	}

	auth, err := s.CA.Authenticate(ctx, core.AuthRequest{
		Client:   core.ClientID(hello.ClientID),
		Nonce:    dm.Nonce,
		M1:       digest,
		Class:    hello.Class,
		Deadline: hello.Deadline,
	})
	if err != nil {
		failErr(err)
		return
	}
	s.Metrics.resultSent(auth.Authenticated)
	conn.SetDeadline(time.Now().Add(s.idle()))
	_ = WriteFrame(conn, MsgResult, EncodeResult(Result{
		Authenticated: auth.Authenticated,
		TimedOut:      auth.TimedOut,
		SearchSeconds: auth.Search.DeviceSeconds,
		PublicKey:     auth.PublicKey,
	}))
}

// AuthOptions carries the client-side knobs of one authentication.
type AuthOptions struct {
	// Latency injects modelled communication costs (see Latency).
	Latency Latency
	// Class is the request's QoS class, sent in the hello. The zero
	// value (interactive) together with a zero Deadline keeps the hello
	// on the v2 wire layout, compatible with old servers.
	Class core.QoSClass
	// Deadline is the absolute deadline sent in the hello; zero means
	// none. A server that cannot meet it refuses the request with
	// StatusDeadlineInfeasible instead of searching.
	Deadline time.Time
}

// Authenticate runs the full client side of the protocol over conn:
// hello, challenge, PUF read, digest, result. Server-reported failures
// are returned as *ServerError carrying the wire Status. This
// single-connection form does not retry; Client owns dialing, failover
// and retry on top of it.
func Authenticate(conn net.Conn, client *core.Client, lat Latency) (Result, error) {
	return AuthenticateWithOptions(conn, client, AuthOptions{Latency: lat})
}

// AuthenticateWithOptions is Authenticate with per-request QoS class and
// deadline carried in the hello. Client.Authenticate funnels through
// this: it is the single wire-level implementation.
func AuthenticateWithOptions(conn net.Conn, client *core.Client, opts AuthOptions) (Result, error) {
	lat := opts.Latency
	hello := Hello{ClientID: string(client.ID), Class: opts.Class, Deadline: opts.Deadline}
	if err := WriteFrame(conn, MsgHello, EncodeHello(hello)); err != nil {
		return Result{}, fmt.Errorf("netproto: hello: %w", err)
	}
	br := getFrameReader(conn)
	defer putFrameReader(br)
	msgType, payload, err := ReadFrame(br)
	if err != nil {
		return Result{}, fmt.Errorf("netproto: challenge: %w", err)
	}
	if msgType == MsgError {
		status, msg := DecodeError(payload)
		return Result{}, &ServerError{Status: status, Msg: msg}
	}
	if msgType != MsgChallenge {
		return Result{}, fmt.Errorf("netproto: unexpected message type %d", msgType)
	}
	msg, err := DecodeChallenge(payload)
	if err != nil {
		return Result{}, err
	}
	ch := core.Challenge{
		Nonce:      msg.Nonce,
		AddressMap: msg.AddressMap,
		Alg:        core.HashAlg(msg.Alg),
	}

	// The PUF read happens here on real hardware; the latency model
	// charges it explicitly.
	if lat.PUFRead > 0 {
		time.Sleep(lat.PUFRead)
	}
	m1, err := client.Respond(ch)
	if err != nil {
		return Result{}, err
	}
	if err := WriteFrame(conn, MsgDigest, EncodeDigest(DigestMsg{
		Nonce:  ch.Nonce,
		Digest: m1.Bytes(),
	})); err != nil {
		return Result{}, fmt.Errorf("netproto: digest: %w", err)
	}

	msgType, payload, err = ReadFrame(br)
	if err != nil {
		return Result{}, fmt.Errorf("netproto: result: %w", err)
	}
	if msgType == MsgError {
		status, msg := DecodeError(payload)
		return Result{}, &ServerError{Status: status, Msg: msg}
	}
	if msgType != MsgResult {
		return Result{}, fmt.Errorf("netproto: unexpected message type %d", msgType)
	}
	if lat.RTT > 0 {
		time.Sleep(lat.RTT / 2)
	}
	return DecodeResult(payload)
}
