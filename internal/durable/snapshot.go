package durable

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rbcsalted/internal/core"
)

// snapshotData is the gob-encoded point-in-time state. Image blobs are
// stored exactly as sealed in memory (AES-256-GCM under the master key),
// so a snapshot file contains no plaintext PUF images.
type snapshotData struct {
	// Seq is the WAL sequence cut: recovery replays records with
	// sequence > Seq over this state. Because every journaled op is an
	// idempotent overwrite or delete, a record that is both reflected
	// here and replayed converges to the same state.
	Seq uint64
	// Nonce is the challenge-nonce high-water mark at the cut.
	Nonce    uint64
	Images   map[core.ClientID][]byte
	RAKeys   map[core.ClientID][]byte
	RACerts  map[core.ClientID]*core.Certificate
	Sessions map[core.ClientID]core.Challenge
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".db"
)

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

func snapSeqFromName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(snapPrefix):len(name)-len(snapSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// writeSnapshot persists data atomically: gob into a temp file, fsync,
// rename into place, fsync the directory, then remove superseded
// snapshot files. Returns the snapshot's size in bytes.
func writeSnapshot(dir string, data *snapshotData) (int64, error) {
	tmp, err := os.CreateTemp(dir, snapPrefix+"*.tmp")
	if err != nil {
		return 0, fmt.Errorf("durable: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	bw := bufio.NewWriter(tmp)
	if err := gob.NewEncoder(bw).Encode(data); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("durable: encode snapshot: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("durable: sync snapshot: %w", err)
	}
	st, err := tmp.Stat()
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	final := filepath.Join(dir, snapName(data.Seq))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return 0, fmt.Errorf("durable: publish snapshot: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return 0, err
	}
	// Superseded snapshots are garbage once the new one is durable.
	seqs, _ := listSnapshots(dir)
	for _, s := range seqs {
		if s < data.Seq {
			_ = os.Remove(filepath.Join(dir, snapName(s)))
		}
	}
	return st.Size(), nil
}

func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if s, ok := snapSeqFromName(e.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// loadSnapshot returns the newest decodable snapshot, or nil when the
// directory has none. A snapshot that fails to decode is skipped in
// favour of the next older one (the WAL still holds everything after the
// older cut, so no state is lost — recovery just replays more).
func loadSnapshot(dir string) (*snapshotData, int, error) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return nil, 0, err
	}
	bad := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		f, err := os.Open(filepath.Join(dir, snapName(seqs[i])))
		if err != nil {
			bad++
			continue
		}
		var data snapshotData
		err = gob.NewDecoder(bufio.NewReader(f)).Decode(&data)
		f.Close()
		if err != nil || data.Seq != seqs[i] {
			bad++
			continue
		}
		return &data, bad, nil
	}
	return nil, bad, nil
}
