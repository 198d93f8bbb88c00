package durable

import (
	"bytes"
	"testing"
	"time"

	"rbcsalted/internal/core"
)

// FuzzWALDecode feeds arbitrary bytes to the record decoder. The
// invariants: DecodeRecord and RecordID never panic, anything DecodeRecord
// accepts re-encodes to the exact same bytes (the format is canonical),
// and RecordID reads the same op and ID from it.
func FuzzWALDecode(f *testing.F) {
	seeds := []*Record{
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
	}
	for _, r := range seeds {
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
