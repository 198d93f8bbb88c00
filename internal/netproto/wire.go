// Package netproto carries the RBC-SALTED protocol (Figure 1) over TCP:
// a length-prefixed binary framing for the handshake, challenge, digest
// and result messages, plus a server wrapping a certificate authority and
// a client wrapping a PUF device.
//
// The paper's end-to-end numbers separate a measured 0.90 s communication
// constant (PUF USB read + WAN round trips) from search time; the Latency
// type injects that constant for end-to-end experiments, while loopback
// use measures real transport cost.
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/wire"
)

// Message types.
const (
	MsgHello byte = iota + 1
	MsgChallenge
	MsgDigest
	MsgResult
	MsgError
)

// Status classifies a server-reported failure so clients can react
// without parsing message strings: an overloaded server invites retry
// with backoff, an unknown client does not. Wire format: the first byte
// of a MsgError payload.
type Status byte

// Wire status codes, mapped from the core and sched sentinel errors.
const (
	// StatusInternal is an unclassified server-side failure.
	StatusInternal Status = iota
	// StatusBadRequest reports a malformed or out-of-order message.
	StatusBadRequest
	// StatusUnknownClient maps core.ErrUnknownClient.
	StatusUnknownClient
	// StatusNoSession maps core.ErrNoSession (including replayed
	// challenges — they are single-use).
	StatusNoSession
	// StatusAlgMismatch maps core.ErrAlgMismatch.
	StatusAlgMismatch
	// StatusOverloaded maps sched.ErrOverloaded: admission control shed
	// the search. Retry with backoff.
	StatusOverloaded
	// StatusCancelled reports a search stopped by context cancellation
	// or deadline expiry on the server.
	StatusCancelled
	// StatusDeadlineInfeasible maps sched.ErrDeadlineInfeasible: the
	// hello's absolute deadline could not be met, so the search was
	// refused without being run. Retrying with the same deadline is
	// pointless; relax it or drop it.
	StatusDeadlineInfeasible
	// Status 8 was wrong-shard, a redirect from the removed shard ring.
	// It stays reserved and is never reused: a server built before the
	// removal still sends it, and a Client treats it like any other
	// verdict, as final.
	_
)

// String names the status for logs and error text.
func (s Status) String() string {
	switch s {
	case StatusInternal:
		return "internal"
	case StatusBadRequest:
		return "bad-request"
	case StatusUnknownClient:
		return "unknown-client"
	case StatusNoSession:
		return "no-session"
	case StatusAlgMismatch:
		return "alg-mismatch"
	case StatusOverloaded:
		return "overloaded"
	case StatusCancelled:
		return "cancelled"
	case StatusDeadlineInfeasible:
		return "deadline-infeasible"
	default:
		return fmt.Sprintf("status-%d", byte(s))
	}
}

// MaxErrorMsg is the longest error message an error frame can carry:
// the frame budget (maxFrame) minus the type and status bytes.
const MaxErrorMsg = maxFrame - 2

// EncodeError serializes a MsgError payload: status byte + message.
// Messages longer than MaxErrorMsg are truncated so the frame always
// fits WriteFrame's limit — an oversized message must never stop the
// status byte from reaching the client (previously such a frame failed
// to send and the client hung until EOF).
func EncodeError(s Status, msg string) []byte {
	if len(msg) > MaxErrorMsg {
		msg = msg[:MaxErrorMsg]
	}
	return append([]byte{byte(s)}, msg...)
}

// DecodeError parses a MsgError payload.
func DecodeError(p []byte) (Status, string) {
	if len(p) == 0 {
		return StatusInternal, "unspecified server error"
	}
	return Status(p[0]), string(p[1:])
}

// ServerError is the client-side view of a server-reported failure.
type ServerError struct {
	Status Status
	Msg    string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("netproto: server [%s]: %s", e.Status, e.Msg)
}

// Frame limits: the largest legitimate message is a challenge
// (256 x 2-byte cell addresses + header); anything bigger is an attack or
// corruption.
const maxFrame = 1 << 16

// The two frames a client sends are read with caps at their largest
// legal size, so a peer that has proved nothing holds no more than that:
// the largest hello is a v4 one, still accepted from older clients — the
// type byte, its 19-byte header and a 255-byte id; a digest is the type
// byte, the nonce and a SHA3-512-sized digest.
const (
	maxHelloFrame  = 1 + helloV4Header + 255
	maxDigestFrame = 1 + 8 + 64
)

// WriteFrame sends one framed message — u32 length, u8 type, payload —
// in a single Write (wire.Write), refusing one larger than 64 KiB.
func WriteFrame(w io.Writer, msgType byte, payload []byte) error {
	return wire.Write(w, msgType, payload, maxFrame)
}

// frameReaders holds the buffered readers both ends read a connection's
// frames through, so a frame costs one read of the socket, not one for
// its length and one for its body.
var frameReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1024) }}

// getFrameReader borrows a buffered reader over r; putFrameReader hands
// it back once nothing reads through it any more.
func getFrameReader(r io.Reader) *bufio.Reader {
	br := frameReaders.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putFrameReader(br *bufio.Reader) {
	br.Reset(nil)
	frameReaders.Put(br)
}

// ReadFrame receives one framed message of at most 64 KiB (wire.Read).
func ReadFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	return wire.Read(r, maxFrame)
}

// Hello is the client's opening message. Since protocol v3 it may carry
// the request's QoS class and absolute deadline, which the server threads
// into the scheduler's admission control.
type Hello struct {
	ClientID string
	// Class is the request's QoS class; the zero value (interactive) is
	// also what a v2 hello decodes to.
	Class core.QoSClass
	// Deadline is the client's absolute deadline for the whole
	// authentication; zero means none. Encoded as Unix nanoseconds, so
	// both ends must have loosely synchronized clocks (same assumption
	// the session TTL already makes).
	Deadline time.Time
}

// helloV3Version tags the extended hello layout. A v3 payload is
//
//	0x00 | version | class | deadline (8 bytes, big-endian Unix nanos,
//	0 = none) | client id (1-255 bytes)
//
// The 0x00 marker cannot begin a v2 hello sent by any released client
// (IDs are human-assigned names), so old and new payloads are
// distinguishable from the first byte and a v2-only server rejects a v3
// hello cleanly at its id-length check rather than misreading it.
// A v4 payload, sent only by clients built when the CA could be sharded,
// extends v3 with the topology epoch of the client's shard ring:
//
//	0x00 | 4 | class | deadline (8 bytes) | ring epoch (8 bytes) |
//	client id (1-255 bytes)
//
// It is still decoded, with the epoch ignored, and never encoded.
const (
	helloV3Marker  = 0x00
	helloV3Version = 3
	helloV3Header  = 11 // marker + version + class + 8-byte deadline
	helloV4Version = 4
	helloV4Header  = helloV3Header + 8 // + 8-byte ring epoch
)

// EncodeHello serializes a Hello at the oldest wire version that can
// carry it: a hello with default QoS encodes as the v2 raw client id and
// QoS selects v3, so upgraded clients keep working against older servers
// until they actually use the new fields. An id that starts with the v3
// marker would read as an extended hello, so it always takes the v3
// layout.
func EncodeHello(h Hello) []byte {
	raw := h.ClientID == "" || h.ClientID[0] != helloV3Marker
	if raw && h.Class == core.ClassInteractive && h.Deadline.IsZero() {
		return []byte(h.ClientID)
	}
	out := make([]byte, helloV3Header+len(h.ClientID))
	out[0] = helloV3Marker
	out[1] = helloV3Version
	out[2] = byte(h.Class)
	if !h.Deadline.IsZero() {
		binary.BigEndian.PutUint64(out[3:11], uint64(h.Deadline.UnixNano()))
	}
	copy(out[helloV3Header:], h.ClientID)
	return out
}

// DecodeHello parses a Hello, accepting the v2 raw-id payload and the
// v3/v4 extended layouts (a v4 hello's ring epoch is skipped).
func DecodeHello(p []byte) (Hello, error) {
	if len(p) > 0 && p[0] == helloV3Marker {
		if len(p) < 2 {
			return Hello{}, errors.New("netproto: truncated extended hello")
		}
		header := helloV3Header
		switch p[1] {
		case helloV3Version:
		case helloV4Version:
			header = helloV4Header
		default:
			return Hello{}, fmt.Errorf("netproto: unsupported hello version %d", p[1])
		}
		if len(p) < header {
			return Hello{}, fmt.Errorf("netproto: truncated v%d hello", p[1])
		}
		h := Hello{Class: core.QoSClass(p[2])}
		if !h.Class.Valid() {
			return Hello{}, fmt.Errorf("netproto: invalid QoS class %d", p[2])
		}
		if nanos := binary.BigEndian.Uint64(p[3:11]); nanos != 0 {
			h.Deadline = time.Unix(0, int64(nanos))
		}
		id := p[header:]
		if len(id) == 0 || len(id) > 255 {
			return Hello{}, errors.New("netproto: invalid client id length")
		}
		h.ClientID = string(id)
		return h, nil
	}
	if len(p) == 0 || len(p) > 255 {
		return Hello{}, errors.New("netproto: invalid client id length")
	}
	return Hello{ClientID: string(p)}, nil
}

// Challenge mirrors core.Challenge on the wire.
type Challenge struct {
	Nonce      uint64
	Alg        byte
	AddressMap []int
}

// EncodeChallenge serializes a Challenge.
func EncodeChallenge(c Challenge) ([]byte, error) {
	if len(c.AddressMap) != 256 {
		return nil, fmt.Errorf("netproto: address map has %d cells, want 256", len(c.AddressMap))
	}
	out := make([]byte, 9+2*len(c.AddressMap))
	binary.BigEndian.PutUint64(out[:8], c.Nonce)
	out[8] = c.Alg
	for i, cell := range c.AddressMap {
		if cell < 0 || cell > 0xFFFF {
			return nil, fmt.Errorf("netproto: cell index %d out of range", cell)
		}
		binary.BigEndian.PutUint16(out[9+2*i:], uint16(cell))
	}
	return out, nil
}

// DecodeChallenge parses a Challenge.
func DecodeChallenge(p []byte) (Challenge, error) {
	if len(p) != 9+2*256 {
		return Challenge{}, fmt.Errorf("netproto: challenge payload %d bytes", len(p))
	}
	c := Challenge{
		Nonce:      binary.BigEndian.Uint64(p[:8]),
		Alg:        p[8],
		AddressMap: make([]int, 256),
	}
	for i := range c.AddressMap {
		c.AddressMap[i] = int(binary.BigEndian.Uint16(p[9+2*i:]))
	}
	return c, nil
}

// DigestMsg is the client's response digest M_1.
type DigestMsg struct {
	Nonce  uint64
	Digest []byte
}

// EncodeDigest serializes a DigestMsg.
func EncodeDigest(d DigestMsg) []byte {
	out := make([]byte, 8+len(d.Digest))
	binary.BigEndian.PutUint64(out[:8], d.Nonce)
	copy(out[8:], d.Digest)
	return out
}

// DecodeDigest parses a DigestMsg.
func DecodeDigest(p []byte) (DigestMsg, error) {
	if len(p) < 8+20 || len(p) > 8+64 {
		return DigestMsg{}, fmt.Errorf("netproto: digest payload %d bytes", len(p))
	}
	return DigestMsg{
		Nonce:  binary.BigEndian.Uint64(p[:8]),
		Digest: append([]byte(nil), p[8:]...),
	}, nil
}

// Result is the server's verdict.
type Result struct {
	Authenticated bool
	TimedOut      bool
	SearchSeconds float64
	PublicKey     []byte
}

// EncodeResult serializes a Result.
func EncodeResult(r Result) []byte {
	out := make([]byte, 10+len(r.PublicKey))
	if r.Authenticated {
		out[0] = 1
	}
	if r.TimedOut {
		out[1] = 1
	}
	binary.BigEndian.PutUint64(out[2:10], math.Float64bits(r.SearchSeconds))
	copy(out[10:], r.PublicKey)
	return out
}

// DecodeResult parses a Result.
func DecodeResult(p []byte) (Result, error) {
	if len(p) < 10 {
		return Result{}, fmt.Errorf("netproto: result payload %d bytes", len(p))
	}
	r := Result{
		Authenticated: p[0] == 1,
		TimedOut:      p[1] == 1,
		SearchSeconds: math.Float64frombits(binary.BigEndian.Uint64(p[2:10])),
	}
	if len(p) > 10 {
		r.PublicKey = append([]byte(nil), p[10:]...)
	}
	return r, nil
}
