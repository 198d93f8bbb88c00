package netproto

import (
	"bytes"
	"testing"
	"time"

	"rbcsalted/internal/core"
)

// FuzzDecodeChallenge must never panic on hostile payloads.
func FuzzDecodeChallenge(f *testing.F) {
	addr := make([]int, 256)
	for i := range addr {
		addr[i] = i
	}
	good, _ := EncodeChallenge(Challenge{Nonce: 1, Alg: 1, AddressMap: addr})
	f.Add(good)
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := DecodeChallenge(data)
		if err != nil {
			return
		}
		re, err := EncodeChallenge(ch)
		if err != nil || !bytes.Equal(re, data) {
			t.Fatal("challenge does not round trip")
		}
	})
}

// FuzzDecodeError: any payload decodes to some status + message, and
// encoding that pair back always yields a frame WriteFrame accepts —
// the status byte can never be lost to an oversized message.
func FuzzDecodeError(f *testing.F) {
	f.Add(EncodeError(StatusOverloaded, "queue full"))
	f.Add([]byte{})
	f.Add([]byte{byte(StatusCancelled)})
	f.Add(bytes.Repeat([]byte{0xFF}, maxFrame))
	f.Fuzz(func(t *testing.T, data []byte) {
		status, msg := DecodeError(data)
		re := EncodeError(status, msg)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, MsgError, re); err != nil {
			t.Fatalf("re-encoded error frame rejected by WriteFrame: %v", err)
		}
		status2, msg2 := DecodeError(re)
		if status2 != status {
			t.Fatalf("status does not round trip: %v != %v", status2, status)
		}
		if len(msg) <= MaxErrorMsg && msg2 != msg {
			t.Fatal("in-budget message does not round trip")
		}
	})
}

// FuzzDecodeResult and digest decoding must be total functions.
func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(Result{Authenticated: true, SearchSeconds: 1.5, PublicKey: []byte{1}}))
	f.Add([]byte{})
	// v3 hello seeds: a well-formed extended hello, a truncated header,
	// and a bare marker — DecodeHello must reject or parse, never panic.
	f.Add(EncodeHello(Hello{ClientID: "alice", Class: core.ClassBackground,
		Deadline: time.Unix(0, 1754550000123456789)}))
	f.Add([]byte{helloV3Marker, helloV3Version, 1, 0, 0})
	f.Add([]byte{helloV3Marker})
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeResult(data); err == nil {
			_ = EncodeResult(r)
		}
		if d, err := DecodeDigest(data); err == nil {
			_ = EncodeDigest(d)
		}
		if h, err := DecodeHello(data); err == nil {
			_ = EncodeHello(h)
		}
	})
}

// FuzzDecodeHello: the first payload of every accepted connection. A
// hello either fails to decode or decodes to a client id of 1-255 bytes
// and a valid class, and encoding it again yields a payload that decodes
// to the same hello.
func FuzzDecodeHello(f *testing.F) {
	f.Add([]byte("alice"))
	f.Add([]byte{})
	f.Add(EncodeHello(Hello{ClientID: "alice", Class: core.ClassBatch, Deadline: time.Unix(0, 1754550000123456789)}))
	f.Add(EncodeHello(Hello{ClientID: "bob", Class: core.ClassBatch}))
	f.Add(encodeHelloV4(Hello{ClientID: "carol", Deadline: time.Unix(0, 1754550000123456789)}, 7))
	f.Add([]byte{helloV3Marker, helloV4Version, 1, 0, 0})
	f.Add([]byte{helloV3Marker})
	// A default-QoS hello whose id starts with the extended marker: the raw
	// v2 layout cannot carry it.
	f.Add(append([]byte{helloV3Marker, helloV3Version}, make([]byte, helloV3Header-1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		if n := len(h.ClientID); n == 0 || n > 255 || !h.Class.Valid() {
			t.Fatalf("decoded an invalid hello %+v", h)
		}
		again, err := DecodeHello(EncodeHello(h))
		if err != nil {
			t.Fatalf("re-encoded hello %+v: %v", h, err)
		}
		if again.ClientID != h.ClientID || again.Class != h.Class || !again.Deadline.Equal(h.Deadline) {
			t.Fatalf("hello does not round trip: %+v -> %+v", h, again)
		}
	})
}
