package core

import (
	"errors"
	"testing"
	"time"

	"rbcsalted/internal/puf"
)

// testCAPair builds a CA (echo backend, d<=2) with one enrolled
// low-noise client.
func testCAPair(t *testing.T) (*CA, *Client) {
	t.Helper()
	ca, _, _ := newTestCA(t, SHA3)
	client := enrollTestClient(t, ca, "alice", 77, puf.Profile{BaseError: 0.5 / 256.0})
	return ca, client
}

func nextNonce(t *testing.T, tab *SessionTable) uint64 {
	t.Helper()
	n, err := tab.NextNonce()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSessionTableLeasesNonces: with a lease attached, every nonce is
// issued at or below the ceiling of a lease that returned before it, a
// lease covers the nonce that takes it and NonceLeaseBlock more, and a
// failed lease issues nothing and is retried by the next call.
func TestSessionTableLeasesNonces(t *testing.T) {
	tab := NewSessionTable()
	var leases []uint64
	fail := false
	tab.SetLease(func(upTo uint64) error {
		if fail {
			return errors.New("lease refused")
		}
		leases = append(leases, upTo)
		return nil
	})
	const issued = 2*(NonceLeaseBlock+1) + 1
	for range issued {
		n := nextNonce(t, tab)
		if len(leases) == 0 || n > leases[len(leases)-1] {
			t.Fatalf("nonce %d issued above the leases %v", n, leases)
		}
	}
	if len(leases) != 3 {
		t.Fatalf("%d leases for %d nonces, want 3", len(leases), issued)
	}
	if got, want := tab.NonceCeiling(), leases[2]; got != want {
		t.Fatalf("NonceCeiling = %d, want %d", got, want)
	}
	tab.BumpNonce(leases[2])
	fail = true
	if _, err := tab.NextNonce(); err == nil {
		t.Fatal("a nonce was issued past the ceiling without a lease")
	}
	fail = false
	if n := nextNonce(t, tab); n <= leases[2] || n > leases[3] {
		t.Fatalf("nonce %d after the retried lease %v", n, leases)
	}
}

func TestSessionTableOpenTake(t *testing.T) {
	tab := NewSessionTable()
	n := nextNonce(t, tab)
	if err := tab.Open("alice", Challenge{Nonce: n, AddressMap: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Take("alice", n+1); ok {
		t.Fatal("wrong nonce consumed the session")
	}
	// The wrong-nonce probe must not void the real session.
	ch, ok := tab.Take("alice", n)
	if !ok || ch.Nonce != n {
		t.Fatalf("Take = %+v, %v", ch, ok)
	}
	if _, ok := tab.Take("alice", n); ok {
		t.Fatal("session replayed")
	}
}

func TestSessionTableTTLExpiry(t *testing.T) {
	tab := NewSessionTable()
	tab.SetTTL(30 * time.Second)
	now := time.Unix(1000, 0)
	tab.SetClock(func() time.Time { return now })

	n := nextNonce(t, tab)
	if err := tab.Open("alice", Challenge{Nonce: n, AddressMap: []int{1}}); err != nil {
		t.Fatal(err)
	}
	// Inside the TTL the session is live.
	now = now.Add(29 * time.Second)
	if ch, ok := tab.Take("alice", n); !ok || ch.Nonce != n {
		t.Fatalf("fresh session rejected: %+v %v", ch, ok)
	}

	n2 := nextNonce(t, tab)
	if err := tab.Open("alice", Challenge{Nonce: n2, AddressMap: []int{1}}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(31 * time.Second)
	if _, ok := tab.Take("alice", n2); ok {
		t.Fatal("expired session consumed")
	}
	// Expiry evicted the entry entirely.
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after expiry", tab.Len())
	}
}

func TestSessionTableSweepEvictsAbandoned(t *testing.T) {
	tab := NewSessionTableShards(1) // one shard so every id shares a sweep
	tab.SetTTL(10 * time.Second)
	now := time.Unix(0, 0)
	tab.SetClock(func() time.Time { return now })

	for _, id := range []ClientID{"a", "b", "c"} {
		if err := tab.Open(id, Challenge{Nonce: nextNonce(t, tab), AddressMap: []int{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d", tab.Len())
	}
	// Long after the TTL, the next Open sweeps the abandoned handshakes.
	now = now.Add(time.Minute)
	if err := tab.Open("d", Challenge{Nonce: nextNonce(t, tab), AddressMap: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after sweep, want 1 (just %q)", tab.Len(), "d")
	}
}

func TestCASessionTTLRejectsStaleNonce(t *testing.T) {
	ca, client := testCAPair(t)
	now := time.Unix(5000, 0)
	ca.Sessions().SetClock(func() time.Time { return now })
	ca.Sessions().SetTTL(30 * time.Second)

	ch, err := ca.BeginHandshake(client.ID)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := client.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	_, err = ca.Authenticate(t.Context(), AuthRequest{Client: client.ID, Nonce: ch.Nonce, M1: m1})
	if !errors.Is(err, ErrNoSession) {
		t.Fatalf("stale handshake error = %v, want ErrNoSession", err)
	}
}

func TestCAConfigSessionTTLDefaultAndValidation(t *testing.T) {
	cfg := CAConfig{}
	cfg = cfg.withDefaults()
	if cfg.SessionTTL != DefaultSessionTTL {
		t.Errorf("default SessionTTL = %v", cfg.SessionTTL)
	}
	bad := CAConfig{SessionTTL: -time.Second}
	if err := bad.Validate(); err == nil {
		t.Error("negative SessionTTL accepted")
	}
}

func TestRADelete(t *testing.T) {
	ra := NewRA()
	if err := ra.Delete("ghost"); err != nil {
		t.Fatalf("deleting an absent client: %v", err)
	}
	if err := ra.Update("alice", []byte("pk")); err != nil {
		t.Fatal(err)
	}
	if err := ra.UpdateCertificate("alice", &Certificate{ClientID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := ra.Delete("alice"); err != nil {
		t.Fatal(err)
	}
	if _, ok := ra.PublicKey("alice"); ok {
		t.Error("key survived Delete")
	}
	if _, ok := ra.Certificate("alice"); ok {
		t.Error("certificate survived Delete")
	}
	if ra.Len() != 0 {
		t.Errorf("Len = %d", ra.Len())
	}
}

func TestCADeprovision(t *testing.T) {
	ca, client := testCAPair(t)
	// Establish state in all three stores: image (enrolled by
	// testCAPair), RA entry and an open session.
	ch, err := ca.BeginHandshake(client.ID)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := client.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Authenticate(t.Context(), AuthRequest{Client: client.ID, Nonce: ch.Nonce, M1: m1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.BeginHandshake(client.ID); err != nil {
		t.Fatal(err)
	}

	if err := ca.Deprovision(client.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.BeginHandshake(client.ID); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("deprovisioned client still enrolls handshakes: %v", err)
	}
	if ca.Sessions().Len() != 0 {
		t.Error("session survived Deprovision")
	}
}

// journalRecorder counts Journal callbacks and can refuse them.
type journalRecorder struct {
	fail  bool
	opens int
	close int
}

func (j *journalRecorder) ImagePut(ClientID, []byte) error           { return j.err() }
func (j *journalRecorder) ImageDelete(ClientID) error                { return j.err() }
func (j *journalRecorder) RAKeyUpdate(ClientID, []byte) error        { return j.err() }
func (j *journalRecorder) RACertUpdate(ClientID, *Certificate) error { return j.err() }
func (j *journalRecorder) RADelete(ClientID) error                   { return j.err() }
func (j *journalRecorder) SessionOpen(ClientID, Challenge) error {
	if j.fail {
		return errors.New("journal down")
	}
	j.opens++
	return nil
}
func (j *journalRecorder) SessionClose(ClientID) error {
	if j.fail {
		return errors.New("journal down")
	}
	j.close++
	return nil
}
func (j *journalRecorder) err() error {
	if j.fail {
		return errors.New("journal down")
	}
	return nil
}

// TestJournalVeto: a failing journal must keep memory behind the log —
// the mutation is refused, not applied.
func TestJournalVeto(t *testing.T) {
	j := &journalRecorder{fail: true}

	ra := NewRA()
	ra.SetJournal(j)
	if err := ra.Update("alice", []byte("pk")); err == nil {
		t.Fatal("RA.Update applied despite journal failure")
	}
	if _, ok := ra.PublicKey("alice"); ok {
		t.Fatal("vetoed key visible in memory")
	}

	tab := NewSessionTable()
	tab.SetJournal(j)
	if err := tab.Open("alice", Challenge{Nonce: 1, AddressMap: []int{1}}); err == nil {
		t.Fatal("session opened despite journal failure")
	}
	if tab.Len() != 0 {
		t.Fatal("vetoed session visible in memory")
	}

	j.fail = false
	if err := tab.Open("alice", Challenge{Nonce: 1, AddressMap: []int{1}}); err != nil {
		t.Fatal(err)
	}
	key := [32]byte{1}
	store, _ := NewImageStore(key)
	store.SetJournal(j)
	j.fail = true
	if err := store.Put("alice", testImage(t)); err == nil {
		t.Fatal("image stored despite journal failure")
	}
	if store.Has("alice") {
		t.Fatal("vetoed image visible in memory")
	}

	// Take with a failing close journal reports no session (memory never
	// ahead of the log) and keeps the session for after the journal heals.
	if _, ok := tab.Take("alice", 1); ok {
		t.Fatal("session consumed despite close-journal failure")
	}
	j.fail = false
	if _, ok := tab.Take("alice", 1); !ok {
		t.Fatal("session lost after journal recovered")
	}
	if j.opens != 1 || j.close != 1 {
		t.Fatalf("journal saw %d opens / %d closes", j.opens, j.close)
	}
}
