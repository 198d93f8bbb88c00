package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// collectWAL opens dir's WAL and gathers every replayed payload.
func collectWAL(t *testing.T, dir string, cfg walConfig, from uint64) (*wal, RecoveryStats, [][]byte) {
	t.Helper()
	var payloads [][]byte
	w, rec, err := openWAL(dir, cfg, from, func(seq uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	return w, rec, payloads
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := collectWAL(t, dir, walConfig{}, 0)
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		seq, err := w.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		want = append(want, p)
	}
	if w.LastSeq() != 50 {
		t.Fatalf("LastSeq = %d", w.LastSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec, got := collectWAL(t, dir, walConfig{}, 0)
	defer w2.Close()
	if rec.Records != 50 || rec.Truncated || rec.Skipped != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Appends after recovery continue the sequence.
	if seq, err := w2.Append([]byte("more")); err != nil || seq != 51 {
		t.Fatalf("post-recovery append seq=%d err=%v", seq, err)
	}
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	w, _, _ := collectWAL(t, dir, walConfig{segBytes: 64}, 0)
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 {
		t.Fatalf("expected rotation to create segments, got %d", len(starts))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec, got := collectWAL(t, dir, walConfig{segBytes: 64}, 0)
	if rec.Records != 20 || rec.Segments != len(starts) {
		t.Fatalf("recovery = %+v", rec)
	}
	if len(got) != 20 {
		t.Fatalf("replayed %d records", len(got))
	}

	// Compact everything a snapshot at the current cut would cover.
	cut := w2.LastSeq()
	if err := w2.Rotate(); err != nil {
		t.Fatal(err)
	}
	removed, err := w2.CompactBefore(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	if _, err := w2.Append([]byte("after-compact")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery with the snapshot cut sees only the post-compaction tail.
	w3, rec3, got3 := collectWAL(t, dir, walConfig{segBytes: 64}, cut)
	defer w3.Close()
	if rec3.Records != 1 || !bytes.Equal(got3[0], []byte("after-compact")) {
		t.Fatalf("post-compaction recovery = %+v, payloads %q", rec3, got3)
	}
}

// TestWALTornTailEveryOffset truncates the log at every possible byte
// offset and verifies recovery keeps exactly the records whose frames
// survived whole, repairs the tail, and accepts new appends.
func TestWALTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	w, _, _ := collectWAL(t, master, walConfig{}, 0)
	var want [][]byte
	frameLens := make([]int64, 0, 8)
	for i := 0; i < 8; i++ {
		p := []byte(fmt.Sprintf("torn-test-record-%d", i))
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
		frameLens = append(frameLens, recordHeader+int64(len(p)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(master, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for off := int64(0); off <= int64(len(full)); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:off], 0o600); err != nil {
			t.Fatal(err)
		}
		// How many whole frames fit below off?
		complete, end := 0, int64(0)
		for _, fl := range frameLens {
			if end+fl > off {
				break
			}
			end += fl
			complete++
		}
		w2, rec, got := collectWAL(t, dir, walConfig{}, 0)
		if rec.Records != complete {
			t.Fatalf("offset %d: recovered %d records, want %d", off, rec.Records, complete)
		}
		// The torn tail reaches through the fragment's last nonzero byte:
		// zeros after it (or a fragment of nothing but a sequence number's
		// leading zeros) read as never-written space, not as damage.
		wantTorn := int64(len(bytes.TrimRight(full[end:off], "\x00")))
		if rec.TornBytes != wantTorn || rec.Truncated != (wantTorn > 0) {
			t.Fatalf("offset %d: tornBytes=%d truncated=%v, want %d bytes", off, rec.TornBytes, rec.Truncated, wantTorn)
		}
		for i := 0; i < complete; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("offset %d: record %d mismatch", off, i)
			}
		}
		// The repaired log accepts a new record at the right sequence.
		if seq, err := w2.Append([]byte("fresh")); err != nil || seq != uint64(complete+1) {
			t.Fatalf("offset %d: append seq=%d err=%v, want %d", off, seq, err, complete+1)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		// And a second recovery is clean.
		w3, rec3, _ := collectWAL(t, dir, walConfig{}, 0)
		if rec3.Truncated || rec3.Records != complete+1 {
			t.Fatalf("offset %d: second recovery = %+v", off, rec3)
		}
		w3.Close()
	}
}

func TestWALBitFlipTruncatesTail(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := collectWAL(t, dir, walConfig{}, 0)
	for i := 0; i < 4; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("bits-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	seg := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(seg)
	// Corrupt a byte inside the LAST record's payload.
	data[len(data)-1] ^= 0x40
	os.WriteFile(seg, data, 0o600)

	w2, rec, _ := collectWAL(t, dir, walConfig{}, 0)
	defer w2.Close()
	if rec.Records != 3 || !rec.Truncated {
		t.Fatalf("recovery after bit flip = %+v", rec)
	}
}

func TestWALMidLogCorruptionRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	// Two segments: corrupting the first must be fatal, not repairable.
	w, _, _ := collectWAL(t, dir, walConfig{segBytes: 48}, 0)
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("seg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	starts, _ := listSegments(dir)
	if len(starts) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(starts))
	}
	seg := filepath.Join(dir, segName(starts[0]))
	data, _ := os.ReadFile(seg)
	data[recordHeader] ^= 0xFF // first record's payload
	os.WriteFile(seg, data, 0o600)

	_, _, err := openWAL(dir, walConfig{}, 0, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestWALSegmentGapRefusedUnlessCovered(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := collectWAL(t, dir, walConfig{segBytes: 48}, 0)
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("gap-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	starts, _ := listSegments(dir)
	if len(starts) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(starts))
	}
	// Remove a middle segment: records are simply gone.
	os.Remove(filepath.Join(dir, segName(starts[1])))

	if _, _, err := openWAL(dir, walConfig{}, 0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap err = %v, want ErrCorrupt", err)
	}
	// But the same gap is fine when a snapshot covers past it.
	from := starts[2] - 1
	w2, rec, _ := collectWAL(t, dir, walConfig{}, from)
	defer w2.Close()
	if rec.Records == 0 {
		t.Fatalf("covered-gap recovery replayed nothing: %+v", rec)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever, "": SyncInterval, "ALWAYS": SyncAlways}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if SyncAlways.String() != "always" || SyncInterval.String() != "interval" || SyncNever.String() != "never" {
		t.Error("SyncPolicy.String mismatch")
	}
}
