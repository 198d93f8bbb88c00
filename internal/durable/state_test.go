package durable

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rbcsalted/internal/core"
	"rbcsalted/internal/obs"
	"rbcsalted/internal/puf"
)

var testKey = [32]byte{7, 7, 7}

func openState(t *testing.T, dir string, opts Options) *State {
	t.Helper()
	opts.Dir = dir
	if opts.MasterKey == ([32]byte{}) {
		opts.MasterKey = testKey
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// nextNonce issues a nonce from st's session table.
func nextNonce(t *testing.T, st *State) uint64 {
	t.Helper()
	n, err := st.Sessions().NextNonce()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func enrollImage(t *testing.T) *puf.Image {
	t.Helper()
	dev, err := puf.NewDevice(31, 512, puf.DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	im, err := puf.Enroll(dev, 11)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestStateReopenPersistsEverything(t *testing.T) {
	dir := t.TempDir()
	st := openState(t, dir, Options{Sync: SyncNever})
	im := enrollImage(t)
	if err := st.Images().Put("alice", im); err != nil {
		t.Fatal(err)
	}
	if err := st.RA().Update("alice", []byte("pk-alice-1")); err != nil {
		t.Fatal(err)
	}
	cert := &core.Certificate{
		ClientID: "alice", KeyAlgorithm: "AES-128", PublicKey: []byte("pk-alice-1"),
		IssuedAt: time.Unix(1000, 0), ExpiresAt: time.Unix(2000, 0), Signature: []byte("sig"),
	}
	if err := st.RA().UpdateCertificate("alice", cert); err != nil {
		t.Fatal(err)
	}
	nonce := nextNonce(t, st)
	ch := core.Challenge{Nonce: nonce, AddressMap: []int{1, 2, 3}, Alg: core.SHA3, IssuedAt: time.Unix(1500, 0)}
	if err := st.Sessions().Open("alice", ch); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openState(t, dir, Options{Sync: SyncNever})
	defer st2.Close()
	got, err := st2.Images().Get("alice")
	if err != nil {
		t.Fatalf("image lost across restart: %v", err)
	}
	for i := range im.Values {
		if got.Values[i] != im.Values[i] {
			t.Fatalf("image corrupted at cell %d", i)
		}
	}
	if pk, ok := st2.RA().PublicKey("alice"); !ok || !bytes.Equal(pk, []byte("pk-alice-1")) {
		t.Fatalf("RA key lost: %q %v", pk, ok)
	}
	c2, ok := st2.RA().Certificate("alice")
	if !ok || !bytes.Equal(c2.PublicKey, cert.PublicKey) || !c2.IssuedAt.Equal(cert.IssuedAt) ||
		!c2.ExpiresAt.Equal(cert.ExpiresAt) || c2.KeyAlgorithm != cert.KeyAlgorithm ||
		!bytes.Equal(c2.Signature, cert.Signature) {
		t.Fatalf("certificate lost or mangled: %+v", c2)
	}
	sess := maps.Collect(st2.Sessions().Challenges())
	if got, ok := sess["alice"]; !ok || got.Nonce != nonce || !got.IssuedAt.Equal(ch.IssuedAt) {
		t.Fatalf("session lost: %+v", sess)
	}
	// The lease ceiling survived, so no challenge nonce is ever reissued.
	if st2.Sessions().Nonce() < nonce+core.NonceLeaseBlock {
		t.Fatalf("nonce high-water = %d, want >= %d", st2.Sessions().Nonce(), nonce+core.NonceLeaseBlock)
	}
	// Close wrote a snapshot; recovery came from it, not a long replay.
	if st2.Recovery().SnapshotSeq == 0 {
		t.Fatalf("recovery = %+v, expected a snapshot", st2.Recovery())
	}
}

func TestStateDeleteClient(t *testing.T) {
	dir := t.TempDir()
	st := openState(t, dir, Options{Sync: SyncNever})
	st.Images().Put("bob", enrollImage(t))
	st.RA().Update("bob", []byte("pk-bob"))
	st.Sessions().Open("bob", core.Challenge{Nonce: nextNonce(t, st), AddressMap: []int{1}})
	if err := st.DeleteClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openState(t, dir, Options{Sync: SyncNever})
	defer st2.Close()
	if st2.Images().Has("bob") {
		t.Error("image survived deprovisioning")
	}
	if _, ok := st2.RA().PublicKey("bob"); ok {
		t.Error("RA entry survived deprovisioning")
	}
	if st2.Sessions().Len() != 0 {
		t.Error("session survived deprovisioning")
	}
}

func TestStateSnapshotCompactsLog(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st := openState(t, dir, Options{Sync: SyncNever, SegmentBytes: 256, Metrics: reg})
	for i := 0; i < 40; i++ {
		id := core.ClientID(fmt.Sprintf("c%02d", i))
		if err := st.RA().Update(id, []byte("pk-of-"+id)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := listSegments(dir)
	if len(before) < 2 {
		t.Fatalf("expected several segments, got %d", len(before))
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) >= len(before) {
		t.Fatalf("snapshot did not compact: %d -> %d segments", len(before), len(after))
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d", len(snaps))
	}
	m := reg.Snapshot()
	if m["durable.snapshots"].(uint64) != 1 {
		t.Errorf("durable.snapshots = %v", m["durable.snapshots"])
	}
	if m["durable.wal_appends"].(uint64) != 40 {
		t.Errorf("durable.wal_appends = %v", m["durable.wal_appends"])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openState(t, dir, Options{Sync: SyncNever, SegmentBytes: 256})
	defer st2.Close()
	if st2.RA().Len() != 40 {
		t.Fatalf("RA.Len = %d after compacted recovery", st2.RA().Len())
	}
	if pk, ok := st2.RA().PublicKey("c07"); !ok || !bytes.Equal(pk, []byte("pk-of-c07")) {
		t.Fatalf("key lost across compaction: %q %v", pk, ok)
	}
}

// TestStateCorruptSnapshotFallsBack: when the newest snapshot does not
// decode, recovery starts from an older one that the log still continues
// — the shape a crash leaves between publishing a snapshot and removing
// its predecessor and the segments behind it.
func TestStateCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st := openState(t, dir, Options{Sync: SyncNever})
	st.RA().Update("alice", []byte("pk1"))
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	older, _ := listSnapshots(dir)
	st.RA().Update("alice", []byte("pk2"))
	// The newer snapshot is published; the crash comes before anything
	// it supersedes is removed.
	cut, nonce, records := st.Records(nil)
	newer := filepath.Join(dir, snapName(cut))
	if _, err := writeStateFile(newer, cut, nonce, records); err != nil {
		t.Fatal(err)
	}
	if err := st.wal.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newer snapshot: cut short by one byte, it lacks its
	// trailer.
	data, err := os.ReadFile(newer)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newer, data[:len(data)-1], 0o600); err != nil {
		t.Fatal(err)
	}
	st2 := openState(t, dir, Options{Sync: SyncNever})
	defer st2.Close()
	if rec := st2.Recovery(); rec.BadSnapshots != 1 || len(older) != 1 || rec.SnapshotSeq != older[0] {
		t.Fatalf("recovery = %+v, want one bad snapshot and a start from %v", rec, older)
	}
	if pk, ok := st2.RA().PublicKey("alice"); !ok || !bytes.Equal(pk, []byte("pk2")) {
		t.Fatalf("fallback recovery lost the key: %q %v", pk, ok)
	}
}

// TestStateCorruptSnapshotOverCompactedLog: when the only snapshot does
// not decode and the log below its cut has been compacted away, nothing
// can rebuild that prefix, and Open refuses with ErrCorrupt instead of
// serving a state without it.
func TestStateCorruptSnapshotOverCompactedLog(t *testing.T) {
	dir := t.TempDir()
	st := openState(t, dir, Options{Sync: SyncNever})
	if err := st.Images().Put("bob", enrollImage(t)); err != nil {
		t.Fatal(err)
	}
	st.RA().Update("alice", []byte("pk1"))
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.RA().Update("alice", []byte("pk2"))
	if err := st.wal.Close(); err != nil { // crash: no final snapshot
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %v", snaps)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(snaps[0])), []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir, MasterKey: testKey, Sync: SyncNever})
	if !errors.Is(err, ErrCorrupt) {
		if err == nil {
			t.Errorf("recovery = %+v, bob enrolled: %v", st2.Recovery(), st2.Images().Has("bob"))
			st2.Close()
		}
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// refModel mirrors the durable state at one-record granularity: every
// generated op journals exactly one WAL record, so "reference after M
// ops" is comparable with "state recovered from M records".
type refModel struct {
	images   map[core.ClientID]bool
	keys     map[core.ClientID][]byte
	certs    map[core.ClientID][]byte // PublicKey of the stored cert
	sessions map[core.ClientID]uint64 // challenge nonce
}

func newRefModel() *refModel {
	return &refModel{
		images:   map[core.ClientID]bool{},
		keys:     map[core.ClientID][]byte{},
		certs:    map[core.ClientID][]byte{},
		sessions: map[core.ClientID]uint64{},
	}
}

// TestStateCrashRecoveryProperty drives K random mutations against a
// durable State and a reference model, truncates the WAL at arbitrary
// byte offsets (simulating a crash mid-write), reopens, and asserts the
// recovered state equals the reference after exactly the records that
// survived.
func TestStateCrashRecoveryProperty(t *testing.T) {
	const K = 160
	rng := rand.New(rand.NewSource(0xD15EA5E))
	ids := make([]core.ClientID, 8)
	for i := range ids {
		ids[i] = core.ClientID(fmt.Sprintf("client-%d", i))
	}
	im := enrollImage(t)

	master := t.TempDir()
	st := openState(t, master, Options{Sync: SyncNever})
	ref := newRefModel()
	// Each op mutates the live state now and can later replay itself
	// into a fresh reference model.
	var replay []func(*refModel)
	apply := func(f func(*refModel)) { f(ref); replay = append(replay, f) }
	// The first nonce takes the lease that covers every later one, so the
	// log's first record is the lease and each later record is one op.
	lastNonce := nextNonce(t, st)

	for len(replay) < K {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(6) {
		case 0: // image put
			if err := st.Images().Put(id, im); err != nil {
				t.Fatal(err)
			}
			apply(func(m *refModel) { m.images[id] = true })
		case 1: // image delete (guarded: absent delete journals nothing)
			if !ref.images[id] {
				continue
			}
			if err := st.Images().Delete(id); err != nil {
				t.Fatal(err)
			}
			apply(func(m *refModel) { delete(m.images, id) })
		case 2: // RA key update
			key := make([]byte, 16)
			rng.Read(key)
			if err := st.RA().Update(id, key); err != nil {
				t.Fatal(err)
			}
			apply(func(m *refModel) { m.keys[id] = key })
		case 3: // RA certificate update
			pk := make([]byte, 8)
			rng.Read(pk)
			cert := &core.Certificate{
				ClientID: id, KeyAlgorithm: "AES-128", PublicKey: pk,
				IssuedAt: time.Unix(10, 0), ExpiresAt: time.Unix(20, 0), Signature: []byte("s"),
			}
			if err := st.RA().UpdateCertificate(id, cert); err != nil {
				t.Fatal(err)
			}
			apply(func(m *refModel) { m.certs[id] = pk })
		case 4: // session open
			nonce := nextNonce(t, st)
			ch := core.Challenge{Nonce: nonce, AddressMap: []int{int(nonce % 512), 7}, Alg: core.SHA3, IssuedAt: time.Unix(30, 0)}
			if err := st.Sessions().Open(id, ch); err != nil {
				t.Fatal(err)
			}
			apply(func(m *refModel) { m.sessions[id] = nonce })
			lastNonce = nonce
		case 5: // session drop (guarded: absent drop journals nothing)
			if _, open := ref.sessions[id]; !open {
				continue
			}
			if err := st.Sessions().Drop(id); err != nil {
				t.Fatal(err)
			}
			apply(func(m *refModel) { delete(m.sessions, id) })
		}
	}
	// Crash without a snapshot: close the WAL directly.
	if err := st.wal.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v), expected exactly one", segs, err)
	}
	full, err := os.ReadFile(filepath.Join(master, segName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}

	offsets := []int64{0, 1, int64(len(full))}
	for i := 0; i < 17; i++ {
		offsets = append(offsets, rng.Int63n(int64(len(full))+1))
	}
	for _, off := range offsets {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:off], 0o600); err != nil {
			t.Fatal(err)
		}
		rec := openState(t, dir, Options{Sync: SyncNever})
		m := max(rec.Recovery().Records-1, 0) // all but the lease
		if m > K {
			t.Fatalf("offset %d: replayed %d records, only %d written", off, m, K)
		}
		want := newRefModel()
		for _, f := range replay[:m] {
			f(want)
		}
		for _, id := range ids {
			if got := rec.Images().Has(id); got != want.images[id] {
				t.Fatalf("offset %d (M=%d): image presence for %s = %v, want %v", off, m, id, got, want.images[id])
			}
			if want.images[id] {
				if _, err := rec.Images().Get(id); err != nil {
					t.Fatalf("offset %d: recovered image for %s unreadable: %v", off, id, err)
				}
			}
			pk, ok := rec.RA().PublicKey(id)
			wpk, wok := want.keys[id]
			if ok != wok || !bytes.Equal(pk, wpk) {
				t.Fatalf("offset %d (M=%d): RA key for %s = %q/%v, want %q/%v", off, m, id, pk, ok, wpk, wok)
			}
			cert, ok := rec.RA().Certificate(id)
			wc, wok := want.certs[id]
			if ok != wok || (ok && !bytes.Equal(cert.PublicKey, wc)) {
				t.Fatalf("offset %d (M=%d): certificate for %s mismatch", off, m, id)
			}
		}
		sess := maps.Collect(rec.Sessions().Challenges())
		if len(sess) != len(want.sessions) {
			t.Fatalf("offset %d (M=%d): %d open sessions, want %d", off, m, len(sess), len(want.sessions))
		}
		for id, nonce := range want.sessions {
			if got, ok := sess[id]; !ok || got.Nonce != nonce {
				t.Fatalf("offset %d (M=%d): session for %s = %+v, want nonce %d", off, m, id, got, nonce)
			}
		}
		// Recovered nonces never collide with pre-crash ones, whether
		// their sessions survived or not. (A cut that takes the lease is
		// a crash before its barrier returned, when no nonce had left.)
		if rec.Recovery().Records > 0 && rec.Sessions().Nonce() < lastNonce {
			t.Fatalf("offset %d: nonce high-water %d below %d", off, rec.Sessions().Nonce(), lastNonce)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
