package durable

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestNonceLeaseSurvivesEveryCut scripts two authentications under one
// lease — lease, open, challenge released, close, RA key, commit, then
// open, challenge released, close, RA key, commit — and cuts the log
// after every record and at torn offsets inside each. Wherever the cut
// falls, the next nonce after the reopen exceeds every nonce released
// before the crash, also those whose SessionOpen the cut took: the
// records after the lease were not durable, so a real crash may lose any
// of them. A cut that takes the lease itself is a crash before the
// lease's barrier returned, when no nonce had left. In the second case a
// snapshot compacts the lease away between the two authentications, so
// only the snapshot's ceiling covers the second nonce.
func TestNonceLeaseSurvivesEveryCut(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compact bool
	}{{"log", false}, {"compacted", true}} {
		t.Run(tc.name, func(t *testing.T) {
			master := t.TempDir()
			r := newCommitRig(t, master, SyncNever)
			cl := r.enroll(t, "frank", 51)
			var released []uint64
			authenticate := func() {
				req := r.handshake(t, cl)
				released = append(released, req.Nonce)
				if res, err := r.ca.Authenticate(context.Background(), req); err != nil || !res.Authenticated {
					t.Fatalf("Authenticate: %+v, %v", res, err)
				}
			}
			authenticate()
			if tc.compact {
				if err := r.st.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			authenticate()
			if err := r.st.wal.Close(); err != nil { // crash: no snapshot
				t.Fatal(err)
			}

			segs, err := listSegments(master)
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments %v (%v), want the active one alone", segs, err)
			}
			snaps, err := filepath.Glob(filepath.Join(master, "snap-*.db"))
			if err != nil || (len(snaps) == 1) != tc.compact {
				t.Fatalf("snapshots %v (%v)", snaps, err)
			}
			full, err := os.ReadFile(filepath.Join(master, segName(segs[0])))
			if err != nil {
				t.Fatal(err)
			}
			// The log case holds ImagePut, NonceLease and the two
			// authentications' three records each; the compacted one the
			// second authentication's three, its lease in the snapshot.
			ends := frameEnds(t, full)
			want, leaseEnd := 8, int64(0)
			if tc.compact {
				want = 3
			} else if len(ends) > 1 {
				leaseEnd = ends[1]
			}
			if len(ends) != want {
				t.Fatalf("log holds %d records, want %d", len(ends), want)
			}

			cuts := []int64{0}
			start := int64(0)
			for _, end := range ends {
				cuts = append(cuts, start+recordHeader/2, start+recordHeader+1, end)
				start = end
			}
			for _, cut := range cuts {
				dir := t.TempDir()
				for _, snap := range snaps {
					data, err := os.ReadFile(snap)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, filepath.Base(snap)), data, 0o600); err != nil {
						t.Fatal(err)
					}
				}
				if err := os.WriteFile(filepath.Join(dir, segName(segs[0])), full[:cut], 0o600); err != nil {
					t.Fatal(err)
				}
				rec := newCommitRig(t, dir, SyncNever)
				next := nextNonce(t, rec.st)
				if cut >= leaseEnd {
					for _, n := range released {
						if next <= n {
							t.Errorf("cut at %d: next nonce %d reissues released nonce %d", cut, next, n)
						}
					}
				}
				if err := rec.st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
