package durable

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rbcsalted/internal/core"
	"rbcsalted/internal/puf"
)

// TestSnapshotTruncationDetected: a state file cut short at any byte —
// inside a frame, or exactly between two — does not decode.
func TestSnapshotTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeState(&buf, 9, 3, slices.Values(sampleRecords)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n := 0
	count := func(uint64, []byte) error { n++; return nil }
	if cut, nonce, err := decodeState(bufio.NewReader(bytes.NewReader(data)), count); err != nil || cut != 9 || nonce != 3 || n != len(sampleRecords) {
		t.Fatalf("whole file: cut %d, nonce %d, %d records, %v", cut, nonce, n, err)
	}
	for off := range len(data) {
		if _, _, err := decodeState(bufio.NewReader(bytes.NewReader(data[:off])), count); err == nil {
			t.Fatalf("state file cut at byte %d of %d decoded", off, len(data))
		}
	}
}

func TestEnrolmentFileRoundTrip(t *testing.T) {
	key := [32]byte{3, 1, 4}
	store, _ := core.NewImageStore(key)
	im := enrollImage(t)
	if err := store.Put("alice", im); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ca-images.db")
	if err := SaveImages(path, store); err != nil {
		t.Fatal(err)
	}
	// The persisted form must not leak the plaintext image.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := im.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off+16 <= len(plain); off += 16 {
		if bytes.Contains(data, plain[off:off+16]) {
			t.Fatalf("enrolment file leaks plaintext bytes %d..%d", off, off+16)
		}
	}
	loaded, err := LoadImages(path, key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Values {
		if got.Values[i] != im.Values[i] {
			t.Fatalf("image corrupted at cell %d", i)
		}
	}
}

func TestEnrolmentFileWrongKey(t *testing.T) {
	store, _ := core.NewImageStore([32]byte{1})
	store.Put("alice", enrollImage(t))
	path := filepath.Join(t.TempDir(), "ca-images.db")
	if err := SaveImages(path, store); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadImages(path, [32]byte{2})
	if err != nil {
		t.Fatal(err) // load succeeds; decryption must fail
	}
	if _, err := loaded.Get("alice"); err == nil {
		t.Error("wrong master key opened a sealed image")
	}
}

// TestEnrolmentFileGarbage: neither garbage nor a state file holding
// anything but images loads as an enrolment file.
func TestEnrolmentFileGarbage(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.db")
	if err := os.WriteFile(garbage, []byte("not a store"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImages(garbage, [32]byte{}); err == nil {
		t.Error("garbage accepted as an enrolment file")
	}
	keys := filepath.Join(dir, "keys.db")
	if _, err := writeStateFile(keys, 0, 0, slices.Values(sampleRecords[2:3])); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImages(keys, [32]byte{}); err == nil {
		t.Error("a state file holding an RA key accepted as an enrolment file")
	}
}

// TestEnrolmentFileReadsGobV0: testdata/enrol_gob_v0.db is an enrolment
// file as rbc-enroll wrote it before enrolment files were state files, a
// gob map of sealed images (key 0..31; "fixture-client" and
// "fixture-client-2" enrolled over 3 reads from noiseless 1024-cell
// devices with seeds 20232 and 20233).
func TestEnrolmentFileReadsGobV0(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	store, err := LoadImages(filepath.Join("testdata", "enrol_gob_v0.db"), key)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("loaded %d images, want 2", store.Len())
	}
	for i, id := range []core.ClientID{"fixture-client", "fixture-client-2"} {
		dev, err := puf.NewDevice(20232+uint64(i), 1024, puf.Profile{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := puf.Enroll(dev, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want.Values {
			if got.Values[c] != want.Values[c] || got.Instability[c] != want.Instability[c] {
				t.Fatalf("%s: loaded image differs at cell %d", id, c)
			}
		}
	}
}
