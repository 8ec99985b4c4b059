package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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
// guard xs with one auditor built by newAuditor, saves every session
// journal with SaveFile, restores the file into a fresh manager over the
// same data with LoadFile, and checks that both answer a probe battery
// identically. update, if
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

	path := filepath.Join(t.TempDir(), "sessions.json")
	if _, err := SaveFile(path, orig, 0); err != nil {
		t.Fatal(err)
	}
	restored := newManager()
	if _, _, err := LoadFile(path, restored); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats("alice").Modifications, orig.Stats("alice").Modifications; got != want {
		t.Fatalf("restored %d modifications, want %d", got, want)
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

// TestLoadFile: a missing file is a fresh start; a file whose journals
// record an update but which holds no dataset values is refused —
// restoring it would answer from the pre-update value a replayed auditor
// has already retired — and so is one with anything but white space
// after its envelope.
func TestLoadFile(t *testing.T) {
	newManager := func() *session.Manager {
		sp := core.NewEngineSpec(dataset.FromValues([]float64{1, 2, 3, 4}))
		sp.Register(func() (audit.Auditor, error) { return sumfull.New(4), nil }, query.Sum)
		m, err := session.NewManager(sp, session.Config{NoJanitor: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	dir := t.TempDir()
	if n, epoch, err := LoadFile(filepath.Join(dir, "missing.json"), newManager()); n != 0 || epoch != 0 || err != nil {
		t.Fatalf("missing file: %d journals, epoch %d, %v", n, epoch, err)
	}
	orig := newManager()
	if _, err := orig.Ask(session.DefaultAnalyst, query.New(query.Sum, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := orig.Update(0, 10); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSessionState(&buf, orig.LogSnapshots(), 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "no-values.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(path, newManager()); err == nil || !strings.Contains(err.Error(), "no dataset values") {
		t.Fatalf("LoadFile restored journals with an update but no dataset values: %v", err)
	}

	// The file is the envelope alone: white space may follow it, as the
	// newline SaveFile writes does, but any other byte refuses the file
	// and leaves the manager untouched.
	buf.Reset()
	fresh := newManager()
	if _, err := fresh.Ask(session.DefaultAnalyst, query.New(query.Sum, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := SaveSessionState(&buf, fresh.LogSnapshots(), 0); err != nil {
		t.Fatal(err)
	}
	for tail, ok := range map[string]bool{"": true, " \t\r\n": true, "x": false, "{}": false, "\n}": false} {
		path := filepath.Join(dir, "tail.json")
		if err := os.WriteFile(path, append(bytes.Clone(buf.Bytes()), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		m := newManager()
		n, _, err := LoadFile(path, m)
		if ok && (err != nil || n != 1) {
			t.Fatalf("tail %q after the envelope: %d journals, %v", tail, n, err)
		}
		events := 0
		for _, l := range m.LogSnapshots() {
			events += len(l.Events)
		}
		if !ok && (err == nil || events != 0) {
			t.Fatalf("tail %q after the envelope: accepted, or restored %d events (%v)", tail, events, err)
		}
	}
}
