package persist

import (
	"bytes"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxdup"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/minfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/session"
)

// roundTrip drives a random history through a manager whose engines
// guard xs with one auditor built by newAuditor, persists every session
// journal, restores them into a fresh manager over the same data, and
// checks that both answer a probe battery identically. update, if
// non-nil, runs on the original manager halfway through the history.
func roundTrip(t *testing.T, xs []float64, kinds []query.Kind, newAuditor func(n int) audit.Auditor, update func(*session.Manager), seed int64) {
	t.Helper()
	newManager := func() *session.Manager {
		sp := core.NewEngineSpec(dataset.FromValues(xs))
		sp.Register(func() (audit.Auditor, error) { return newAuditor(len(xs)), nil }, kinds...)
		m, err := session.NewManager(sp, session.Config{NoJanitor: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	rng := randx.New(seed)
	randomQuery := func() query.Query {
		return query.New(kinds[rng.Intn(len(kinds))], randx.SubsetSizeBetween(rng, len(xs), 2, len(xs))...)
	}
	orig := newManager()
	for step := 0; step < 40; step++ {
		if step == 20 && update != nil {
			update(orig)
		}
		for _, analyst := range []string{session.DefaultAnalyst, "alice"} {
			if _, err := orig.Ask(analyst, randomQuery()); err != nil {
				t.Fatal(err)
			}
		}
	}

	var buf bytes.Buffer
	if err := SaveSessionState(&buf, orig.LogSnapshots(), 0); err != nil {
		t.Fatal(err)
	}
	logs, _, err := LoadSessionState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := newManager()
	_, values := orig.ReplicaSnapshot()
	if err := restored.RestoreSensitiveState(values); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(logs); err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 60; probe++ {
		q := randomQuery()
		r1, err1 := orig.Ask("alice", q)
		r2, err2 := restored.Ask("alice", q)
		if r1 != r2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("probe %v: original %+v (%v), restored %+v (%v)", q, r1, err1, r2, err2)
		}
	}
}

func TestRoundTripSumFull(t *testing.T) {
	xs := randx.UniformDataset(randx.New(1), 20, 0, 1)
	update := func(m *session.Manager) {
		if err := m.Update(3, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip(t, xs, []query.Kind{query.Sum}, func(n int) audit.Auditor { return sumfull.New(n) }, update, 2)
}

func TestRoundTripMaxFull(t *testing.T) {
	xs := randx.DuplicateFreeDataset(randx.New(5), 15, 0, 1)
	roundTrip(t, xs, []query.Kind{query.Max}, func(n int) audit.Auditor { return maxfull.New(n) }, nil, 6)
}

func TestRoundTripMinFull(t *testing.T) {
	xs := randx.DuplicateFreeDataset(randx.New(8), 15, 0, 1)
	roundTrip(t, xs, []query.Kind{query.Min}, func(n int) audit.Auditor { return minfull.New(n) }, nil, 9)
}

func TestRoundTripMaxMinFull(t *testing.T) {
	xs := randx.DuplicateFreeDataset(randx.New(11), 12, 0, 1)
	roundTrip(t, xs, []query.Kind{query.Max, query.Min}, func(n int) audit.Auditor { return maxminfull.New(n) }, nil, 12)
}

func TestRoundTripMaxDup(t *testing.T) {
	rng := randx.New(14)
	xs := make([]float64, 15)
	for i := range xs {
		xs[i] = float64(rng.Intn(10)) // duplicates welcome
	}
	roundTrip(t, xs, []query.Kind{query.Max}, func(n int) audit.Auditor { return maxdup.New(n) }, nil, 15)
}
