// Package wire is the framed transport under the handshake (netproto) and
// replication (replica): one frame format — u32 big-endian length of the
// kind byte and body, kind byte, body — one read policy for the lengths a
// peer claims, in frame headers and in body fields alike, and one accept
// loop. Each protocol reads with a cap at its largest legal message.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// HeaderSize is a frame's length and kind: the bytes before its body.
const HeaderSize = 4 + 1

// Chunk is the most a read allocates for claimed bytes before they
// arrive. Every steady-state message fits (a challenge is 526 bytes, a
// sealed image record a few KB), so those cost one allocation.
const Chunk = 64 << 10

// AppendHeader appends the header of a frame of kind with an n-byte body.
func AppendHeader(b []byte, kind byte, n int) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(1+n)), kind)
}

// bufs holds Write's frame buffers, sized for any handshake frame at
// first and grown to the largest frame written.
var bufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// Write sends one frame in a single Write, so a frame is one syscall and a
// failed write never leaves a header without its body. A frame longer
// than limit is refused unsent.
func Write(w io.Writer, kind byte, body []byte, limit int) error {
	if 1+len(body) > limit {
		return fmt.Errorf("wire: frame too large (%d bytes)", len(body))
	}
	bp := bufs.Get().(*[]byte)
	*bp = append(AppendHeader((*bp)[:0], kind, len(body)), body...)
	_, err := w.Write(*bp)
	bufs.Put(bp)
	return err
}

// Read receives one frame; its body is freshly allocated. A length of
// zero or above limit fails before a body byte is read, and the body is
// read by ReadClaimed. EOF between frames is io.EOF, inside one
// io.ErrUnexpectedEOF. A *bufio.Reader's header is peeked in place, so
// there a frame of up to Chunk bytes is one allocation.
func Read(r io.Reader, limit int) (kind byte, body []byte, err error) {
	var hdr []byte
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err = br.Peek(4)
		if err == nil {
			br.Discard(4)
		} else if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
	} else {
		hdr = make([]byte, 4)
		_, err = io.ReadFull(r, hdr)
	}
	if err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > uint32(limit) {
		return 0, nil, fmt.Errorf("wire: invalid frame length %d", n)
	}
	buf, err := ReadClaimed(r, int(n))
	if err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// ReadClaimed reads the n bytes a length field claims follow. A claim is
// not yet bytes, so the buffer grows (at most doubling) only as bytes
// arrive: a bare length then EOF costs Chunk, not n, and n ≤ Chunk is one
// allocation. Bytes cut short are io.ErrUnexpectedEOF.
func ReadClaimed(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, Chunk))
	read := 0
	for {
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		read = len(buf)
		if read == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-read, read))...)
	}
}

// Next parses the frame at the front of b in place: its kind, its body
// (aliasing b) and the bytes it spans. size is 0 when b holds less than a
// whole frame or a length Read would refuse; Read says which.
func Next(b []byte, limit int) (kind byte, body []byte, size int) {
	if len(b) < HeaderSize {
		return 0, nil, 0
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > uint32(limit) || uint64(n) > uint64(len(b)-4) {
		return 0, nil, 0
	}
	return b[4], b[HeaderSize : 4+n], 4 + int(n)
}

// Acceptor runs a listening socket's accept loop. The zero value is
// ready, and Close may come before Serve.
type Acceptor struct {
	mu     sync.Mutex
	ln     net.Listener
	closed bool
}

// Serve hands each connection ln accepts to handle on a goroutine of its
// own, and returns nil once ln is closed; on a closed Acceptor it closes
// ln at once. A temporary accept error, such as EMFILE or ENFILE under a
// connection flood, is waited out as net/http does: a backoff from 5 ms,
// doubling to 1 s. Any other error is returned.
func (a *Acceptor) Serve(ln net.Listener, handle func(net.Conn)) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		ln.Close()
		return nil
	}
	a.ln = ln
	a.mu.Unlock()
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
			continue
		}
		if err != nil {
			return err
		}
		delay = 0
		go handle(conn)
	}
}

// Close closes the listener Serve is using or, when Serve has not run
// yet, the one it is about to be given.
func (a *Acceptor) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	if a.ln != nil {
		return a.ln.Close()
	}
	return nil
}

// Closed reports whether Close has been called.
func (a *Acceptor) Closed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// Cursor reads a body's fields in order. Every read is bounds-checked and
// the first overrun sticks: later reads return zeros and OK reports it,
// so a decoder checks once. A length field inside a body is a claim like
// a frame's, and Bytes checks it against the bytes that remain before a
// decoder allocates anything for them.
type Cursor struct {
	b   []byte
	bad bool
}

// NewCursor returns a Cursor over b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Bytes returns the next n bytes, aliasing the body, or nil on an overrun.
// A negative n is an overrun, so a decoder can fail a field its own bound
// refuses.
func (c *Cursor) Bytes(n int) []byte {
	if c.bad || n < 0 || n > len(c.b) {
		c.bad = true
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

// zeros is what a fixed-size read past the end returns.
var zeros [8]byte

// fixed is Bytes for a fixed-size field: zeros on an overrun.
func (c *Cursor) fixed(n int) []byte {
	if b := c.Bytes(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8, U16, U32 and U64 read big-endian integers.
func (c *Cursor) U8() byte    { return c.fixed(1)[0] }
func (c *Cursor) U16() uint16 { return binary.BigEndian.Uint16(c.fixed(2)) }
func (c *Cursor) U32() uint32 { return binary.BigEndian.Uint32(c.fixed(4)) }
func (c *Cursor) U64() uint64 { return binary.BigEndian.Uint64(c.fixed(8)) }

// Len returns the bytes left unread.
func (c *Cursor) Len() int { return len(c.b) }

// OK reports whether every read so far was in bounds.
func (c *Cursor) OK() bool { return !c.bad }
