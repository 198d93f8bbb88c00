package durable

import (
	"bufio"
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"rbcsalted/internal/core"
)

// sampleRecords holds one record of every op.
var sampleRecords = []*Record{
	{Op: OpImagePut, ID: "alice", Blob: []byte("sealed-image-bytes")},
	{Op: OpImageDelete, ID: "alice"},
	{Op: OpRAKey, ID: "bob", Blob: []byte{1, 2, 3, 4}},
	{Op: OpRADelete, ID: "bob"},
	{Op: OpRACert, ID: "carol", Cert: &core.Certificate{
		ClientID: "carol", KeyAlgorithm: "AES-128", PublicKey: []byte("pk"),
		IssuedAt: time.Unix(1000, 0), ExpiresAt: time.Unix(2000, 0), Signature: []byte("sig"),
	}},
	{Op: OpSessionOpen, ID: "dave", Challenge: &core.Challenge{
		Nonce: 42, AddressMap: []int{0, 511, 17}, Alg: core.SHA3, IssuedAt: time.Unix(0, 12345),
	}},
	{Op: OpSessionClose, ID: "dave"},
	{Op: OpNonceLease, Lease: 1<<40 + 1025},
}

// FuzzWALDecode feeds arbitrary bytes to the record decoder. The
// invariants: DecodeRecord and RecordID never panic, anything DecodeRecord
// accepts re-encodes to the exact same bytes (the format is canonical),
// and RecordID reads the same op and ID from it.
func FuzzWALDecode(f *testing.F) {
	for _, r := range sampleRecords {
		p, err := r.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 0, 0, 1, 'x'})

	f.Fuzz(func(t *testing.T, p []byte) {
		op, id, idErr := RecordID(p)
		rec, err := DecodeRecord(p)
		if err != nil {
			return
		}
		if idErr != nil || op != rec.Op || string(id) != string(rec.ID) {
			t.Fatalf("RecordID = (%s, %q, %v), DecodeRecord = (%s, %q)", op, id, idErr, rec.Op, rec.ID)
		}
		out, err := rec.Encode()
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(out, p) {
			t.Fatalf("roundtrip not canonical:\n in  %x\n out %x", p, out)
		}
	})
}

// FuzzSnapshot feeds arbitrary bytes to the state-file decoder (the
// snapshot and enrolment-file format). The invariants: it never panics;
// it never allocates more than a small multiple of its input, because
// every length it reads is only a claim until the bytes arrive; and
// anything it accepts re-encodes to the exact same bytes, so decoding and
// encoding are inverse.
func FuzzSnapshot(f *testing.F) {
	for _, recs := range [][]*Record{nil, sampleRecords[:1], sampleRecords} {
		var buf bytes.Buffer
		if err := writeState(&buf, 42, 7, slices.Values(recs)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(stateMagic))
	f.Add(append([]byte(stateMagic), appendFrame(nil, 0, make([]byte, 17))...))
	// A header frame that claims the largest payload and holds none.
	f.Add(append([]byte(stateMagic), 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var recs []*Record
		cut, nonce, err := decodeState(bufio.NewReader(bytes.NewReader(data)), func(_ uint64, p []byte) error {
			rec, err := DecodeRecord(p)
			recs = append(recs, rec)
			return err
		})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+256<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeState(&out, cut, nonce, slices.Values(recs)); err != nil {
			t.Fatalf("decoded state does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("roundtrip not canonical:\n in  %x\n out %x", data, out.Bytes())
		}
	})
}
