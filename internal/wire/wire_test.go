package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The caps the two protocols read with: the handshake's 64 KiB frame
// (internal/netproto) and the replication stream's 32 MiB one, which a
// sealed image record needs (internal/replica).
const (
	handshakeCap   = 1 << 16
	replicationCap = 1 << 25
)

// frame is one whole frame of kind with body.
func frame(kind byte, body []byte) []byte {
	return append(AppendHeader(nil, kind, len(body)), body...)
}

// TestReadAllocatesAsBytesArrive: a length header is only the peer's
// claim. Four bytes announcing the largest frame, then EOF, cost an
// error and a bounded buffer, not the 32 MiB announced; real frames, on
// either side of the first chunk, still arrive whole, and a record-sized
// body is one allocation, as is a whole frame read through a buffered
// reader.
func TestReadAllocatesAsBytesArrive(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], replicationCap)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Read(bufio.NewReader(bytes.NewReader(hdr[:])), replicationCap)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header then EOF: err = %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("header then EOF allocated %d bytes", n)
	}

	for _, size := range []int{1500, 3*Chunk + 7} {
		body := bytes.Repeat([]byte{0xA5}, size)
		kind, got, err := Read(bufio.NewReader(bytes.NewReader(frame(3, body))), replicationCap)
		if err != nil || kind != 3 || !bytes.Equal(got, body) {
			t.Fatalf("%d-byte body came back as kind %d, %d bytes, err %v", size, kind, len(got), err)
		}
	}

	body := make([]byte, 1500)
	r := bytes.NewReader(body)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if _, err := ReadClaimed(r, len(body)); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("record-sized body: %v allocations, want 1", n)
	}

	f := frame(3, body)
	src := bytes.NewReader(f)
	br := bufio.NewReader(src)
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(f)
		br.Reset(src)
		if kind, _, err := Read(br, replicationCap); err != nil || kind != 3 {
			t.Fatalf("frame: kind %d, err %v", kind, err)
		}
	}); n != 1 {
		t.Errorf("record-sized frame: %v allocations, want 1", n)
	}
}

// FuzzReadFrame feeds arbitrary bytes to Read at both protocols' caps,
// through a plain reader and a buffered one. The invariants: nothing
// panics, nothing allocates more than the bytes that arrived justify (a
// bounded first chunk, then a constant factor of the input), both
// readers agree, Next parses exactly the frames Read accepts, and a
// frame that reads re-encodes to exactly the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame(1, []byte("alice")))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 4})                       // over the handshake cap
	f.Add(append(frame(3, []byte("record")), 0, 0, 0)) // a frame, then part of the next

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int{handshakeCap, replicationCap} {
			var bodies [2][]byte
			var errs [2]error
			var kind byte
			for i, r := range []io.Reader{bytes.NewReader(data), bufio.NewReaderSize(bytes.NewReader(data), 16)} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				kind, bodies[i], errs[i] = Read(r, limit)
				runtime.ReadMemStats(&after)
				if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*Chunk+16*len(data)); n > bound {
					t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(data), n, bound)
				}
			}
			if (errs[0] == nil) != (errs[1] == nil) || !bytes.Equal(bodies[0], bodies[1]) {
				t.Fatalf("cap %d: plain read (%v) and buffered read (%v) disagree", limit, errs[0], errs[1])
			}
			nkind, nbody, size := Next(data, limit)
			if errs[0] != nil {
				if size != 0 {
					t.Fatalf("cap %d: Next parsed %d bytes Read refused (%v)", limit, size, errs[0])
				}
				continue
			}
			if size != HeaderSize+len(bodies[0]) || nkind != kind || !bytes.Equal(nbody, bodies[0]) {
				t.Fatalf("cap %d: Next parsed %d bytes, Read %d", limit, size, HeaderSize+len(bodies[0]))
			}
			var out bytes.Buffer
			if err := Write(&out, kind, bodies[0], limit); err != nil {
				t.Fatalf("cap %d: frame read does not re-encode: %v", limit, err)
			}
			if !bytes.Equal(out.Bytes(), data[:size]) {
				t.Fatalf("cap %d: round trip not canonical:\n in  %x\n out %x", limit, data[:size], out.Bytes())
			}
		}
	})
}

// flakyListener fails its first accepts as a process out of file
// descriptors does, then hands out the conns queued on it.
type flakyListener struct {
	fails  int // touched only by the accept loop
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServeOutlivesTransientAcceptErrors: three EMFILEs in a row do not
// end Serve. The conn queued behind them is handled, and Close still
// stops the loop cleanly.
func TestServeOutlivesTransientAcceptErrors(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	ln := &flakyListener{fails: 3, conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	ln.conns <- server

	var a Acceptor
	handled := make(chan net.Conn, 1)
	served := make(chan error, 1)
	go func() { served <- a.Serve(ln, func(c net.Conn) { handled <- c }) }()
	select {
	case c := <-handled:
		if c != server {
			t.Errorf("handled %v, want the queued conn", c)
		}
		c.Close()
	case err := <-served:
		t.Fatalf("Serve ended on transient accept errors: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the conn behind the accept errors was never handled")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
}
