package session

import (
	"testing"

	"queryaudit/internal/query"
)

// askN issues n distinct sum queries so the journal advances.
func askN(t *testing.T, m *Manager, analyst string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Ask(analyst, query.New(query.Sum, i%4, (i+1)%4)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExportAbsentSession(t *testing.T) {
	m := newTestManager(t, Config{}, []float64{1, 2, 3, 4})
	if _, ok := m.Export("nobody"); ok {
		t.Fatal("exported a session that does not exist")
	}
}

// TestExportRestoreRoundTrip: export from one manager, restore into a
// fresh one over the same dataset, verify the replayed position is
// bit-identical, and confirm the restored session continues the game
// exactly where the original would.
func TestExportRestoreRoundTrip(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	m1 := newTestManager(t, Config{}, vals)
	askN(t, m1, "alice", 5)
	snap, ok := m1.Export("alice")
	if !ok {
		t.Fatal("no snapshot")
	}
	if _, err := BuildJournals([]LogSnapshot{snap}); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{}, vals)
	if err := m2.Restore([]LogSnapshot{snap}); err != nil {
		t.Fatal(err)
	}
	seq, digest, ok := m2.PositionOf("alice")
	if !ok || seq != snap.Seq || digest.Hex() != snap.Digest {
		t.Fatalf("restore replayed to (seq %d, %s), exported (seq %d, %s)",
			seq, digest.Hex(), snap.Seq, snap.Digest)
	}

	// The same next query must produce the same outcome on both copies.
	q := query.New(query.Sum, 1, 2)
	r1, err1 := m1.Ask("alice", q)
	r2, err2 := m2.Ask("alice", q)
	if (err1 == nil) != (err2 == nil) || r1.Denied != r2.Denied || r1.Answer != r2.Answer {
		t.Fatalf("restored session diverged: %+v/%v vs %+v/%v", r1, err1, r2, err2)
	}
}
