package replica

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sample is an encoded frame beside the value it must decode to.
type sample struct {
	frame []byte
	want  any
}

// sampleMessages is one frame of every kind, with the subscribe and
// accept at their empty and maximal extremes.
func sampleMessages(t testing.TB) []sample {
	all := make([]int, maxShards)
	for i := range all {
		all[i] = i
	}
	longID := strings.Repeat("f", maxStringLen)
	subs := []*subscribeMsg{
		{FollowerID: "f1", Epoch: 3, Cursor: 99, NumShards: 16},                    // every shard
		{FollowerID: "f2", NumShards: 16, Shards: []int{}},                         // no shard
		{FollowerID: "f3", Epoch: 1, NumShards: 16, Shards: []int{0, 7, 15}},       // a subset
		{FollowerID: longID, Epoch: ^uint64(0), NumShards: maxShards, Shards: all}, // maximal
		{},
	}
	var out []sample
	add := func(frame []byte, want any) { out = append(out, sample{frame, want}) }
	for _, m := range subs {
		frame, err := m.append(nil)
		if err != nil {
			t.Fatal(err)
		}
		add(frame, m)
	}
	for _, m := range []*acceptMsg{
		{Epoch: 5},
		{Epoch: 6, Snapshot: true},
		{Epoch: 7, Err: "fenced by epoch 9"},
		{Err: strings.Repeat("e", maxStringLen)},
	} {
		add(m.append(nil), m)
	}
	add(appendRecord(nil, 42, []byte("payload")), [2]any{uint64(42), []byte("payload")})
	add(appendRecord(nil, 0, []byte{1}), [2]any{uint64(0), []byte{1}})
	add(catchupDoneMsg{Cut: 17, Nonce: 1 << 40}.append(nil), catchupDoneMsg{Cut: 17, Nonce: 1 << 40})
	add(appendSeq(nil, kindWatermark, 8), uint64(8))
	add(appendSeq(nil, kindAck, ^uint64(0)), ^uint64(0))
	return out
}

// decodeAny decodes a body of any kind into the value sampleMessages
// pairs with it.
func decodeAny(kind byte, body []byte) (any, error) {
	switch kind {
	case kindSubscribe:
		return decodeSubscribe(body)
	case kindAccept:
		return decodeAccept(body)
	case kindRecord:
		seq, payload, err := decodeRecordMsg(body)
		return [2]any{seq, payload}, err
	case kindCatchupDone:
		return decodeCatchupDone(body)
	case kindWatermark, kindAck:
		return decodeSeq(body)
	}
	return nil, fmt.Errorf("unknown kind %d", kind)
}

// encodeAny is decodeAny's inverse.
func encodeAny(kind byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case *subscribeMsg:
		return m.append(nil)
	case *acceptMsg:
		return m.append(nil), nil
	case [2]any:
		return appendRecord(nil, m[0].(uint64), m[1].([]byte)), nil
	case catchupDoneMsg:
		return m.append(nil), nil
	case uint64:
		return appendSeq(nil, kind, m), nil
	}
	return nil, fmt.Errorf("unencodable %T", v)
}

// TestMessageRoundTrip: every kind decodes to what was encoded, nil and
// empty shard lists stay distinct, and a subscribe the decoder would
// refuse is refused at encode time instead.
func TestMessageRoundTrip(t *testing.T) {
	for _, m := range sampleMessages(t) {
		kind, body, err := readMsg(bufio.NewReader(bytes.NewReader(m.frame)))
		if err != nil {
			t.Fatalf("%T: %v", m.want, err)
		}
		got, err := decodeAny(kind, body)
		if err != nil || !reflect.DeepEqual(got, m.want) {
			t.Fatalf("kind %d: decoded %+v (%v), want %+v", kind, got, err, m.want)
		}
	}
	for _, bad := range []*subscribeMsg{
		{NumShards: maxShards + 1},
		{NumShards: 4, Shards: []int{4}},
		{NumShards: 4, Shards: []int{-1}},
		{NumShards: 2, Shards: []int{0, 1, 1}},
		{FollowerID: strings.Repeat("f", maxStringLen+1)},
	} {
		if _, err := bad.append(nil); err == nil {
			t.Errorf("subscribe %d/%d shards, %d-byte id encoded", len(bad.Shards), bad.NumShards, len(bad.FollowerID))
		}
	}
}

// FuzzReplicaMsg feeds arbitrary bytes to the frame reader and the
// decoders. The invariants: nothing panics, nothing allocates more than
// the bytes that arrived justify (a bounded first chunk, then a constant
// factor of the input), and any frame that decodes re-encodes to exactly
// the bytes it was read from.
func FuzzReplicaMsg(f *testing.F) {
	for _, m := range sampleMessages(f) {
		if len(m.frame) < 4096 {
			f.Add(m.frame)
		}
	}
	for _, name := range []string{"subscribe_gob_v0.frame", "accept_gob_v0.frame"} {
		frame, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{0, 0, 0, 9, kindAck, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		kind, body, err := readMsg(bufio.NewReaderSize(bytes.NewReader(data), 16))
		var v any
		if err == nil {
			v, err = decodeAny(kind, body)
		}
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*bodyChunk+16*len(data)); n > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(data), n, limit)
		}
		if err != nil {
			return
		}
		frame, err := encodeAny(kind, v)
		if err != nil {
			t.Fatalf("decoded kind %d does not re-encode: %v", kind, err)
		}
		if read := data[:5+len(body)]; !bytes.Equal(frame, read) {
			t.Fatalf("round trip not canonical:\n in  %x\n out %x", read, frame)
		}
	})
}

// TestPrimaryRefusesGobSubscribe: a subscribe from a follower still on
// the gob protocol (the fixture was written by its encoder) is refused
// with an accept naming the protocol version this primary speaks, and
// the connection is closed — no hang, no panic, no subscriber.
func TestPrimaryRefusesGobSubscribe(t *testing.T) {
	frame, err := os.ReadFile("testdata/subscribe_gob_v0.frame")
	if err != nil {
		t.Fatal(err)
	}
	st := openState(t, t.TempDir())
	defer st.Close()
	p, addr := startPrimary(t, st, 1)
	defer p.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	kind, body, err := readMsg(r)
	if err != nil || kind != kindAccept {
		t.Fatalf("reply: kind %d, err %v", kind, err)
	}
	acc, err := decodeAccept(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("protocol version %d", protocolVersion); !strings.Contains(acc.Err, want) {
		t.Fatalf("refusal %q does not name %q", acc.Err, want)
	}
	if _, _, err := readMsg(r); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the primary to close", err)
	}
	if fs := p.Followers(); len(fs) != 0 {
		t.Fatalf("gob-era follower registered: %+v", fs)
	}
}

// TestFollowerRefusesGobAccept is the mirror case: a primary still on
// the gob protocol answers the subscribe with a gob accept (the fixture).
// Run returns an error without adopting anything from it, and RunUntil
// keeps redialing, so the pair converges once the primary upgrades.
func TestFollowerRefusesGobAccept(t *testing.T) {
	frame, err := os.ReadFile("testdata/accept_gob_v0.frame")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func() {
				defer conn.Close()
				if _, _, err := readMsg(bufio.NewReader(conn)); err != nil {
					return
				}
				conn.Write(frame)
				io.Copy(io.Discard, conn) // hold the stream open, as a gob-era primary would
			}()
		}
	}()

	dir := t.TempDir()
	st := openState(t, dir)
	defer st.Close()
	f := newFollower(t, st, dir, "f1", nil)
	err = f.Run(context.Background(), ln.Addr().String())
	if err == nil || errors.Is(err, ErrFenced) || errors.Is(err, ErrStalePrimary) {
		t.Fatalf("Run on a gob accept = %v, want a retryable error", err)
	}
	if f.Epoch() != 0 || f.Cursor() != 0 {
		t.Fatalf("follower adopted epoch %d, cursor %d from a gob accept", f.Epoch(), f.Cursor())
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.RunUntil(ctx, ln.Addr().String(), 5*time.Millisecond) }()
	waitFor(t, "RunUntil to redial", func() bool { return dials.Load() >= 3 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunUntil = %v, want context.Canceled", err)
	}
}
