package maxprob

import (
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
)

func testParams() Params {
	return Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12}, Samples: 512}
}

// A fixed seed must yield bit-identical decision sequences at any worker
// count — the engine's central determinism guarantee.
func TestDecideInvariantAcrossWorkers(t *testing.T) {
	run := func(workers int) []audit.Decision {
		p := testParams()
		p.Workers = workers
		p.Seed = 42
		a, err := New(30, p)
		if err != nil {
			t.Fatal(err)
		}
		queries := []query.Query{
			query.New(query.Max, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
			query.New(query.Max, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
			query.New(query.Max, 5),
			query.New(query.Max, 0, 1, 2, 3, 4, 10, 11, 12),
			query.New(query.Max, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29),
		}
		var ds []audit.Decision
		for _, q := range queries {
			d, err := a.Decide(q)
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, d)
			if d == audit.Answer {
				a.Record(q, 0.25+0.05*float64(len(ds)))
			}
		}
		return ds
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("decision %d differs at workers=%d: %v vs %v", i, workers, got[i], want[i])
			}
		}
	}
}

// A singleton max query is unsafe in every sampled world, so the deny
// certificate fires after barrier+1 samples — the decision must return
// without consuming the 512-sample budget, visible through the
// mc_samples_saved_total metric.
func TestEarlyExitSavesSamples(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := testParams()
		p.Workers = workers
		p.Seed = 7
		a, err := New(20, p)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		a.ConfigureMC(0, metrics.NewMCCollector(reg), nil)
		d, err := a.Decide(query.New(query.Max, 3))
		if err != nil {
			t.Fatal(err)
		}
		if d != audit.Deny {
			t.Fatal("singleton max query must be denied")
		}
		snap := reg.Snapshot()
		budget := snap.Counters["mc_samples_total"] + snap.Counters["mc_samples_saved_total"]
		if budget != 512 {
			t.Fatalf("workers=%d: accounted budget %d, want 512", workers, budget)
		}
		if snap.Counters["mc_samples_saved_total"] < 400 {
			t.Fatalf("workers=%d: early exit saved only %d of 512 samples",
				workers, snap.Counters["mc_samples_saved_total"])
		}
		if snap.Counters["mc_decisions_total"] != 1 {
			t.Fatalf("workers=%d: %d decisions recorded", workers, snap.Counters["mc_decisions_total"])
		}
	}
}

// Consecutive decisions must draw fresh randomness: a query answered on
// the edge of the threshold must not produce byte-identical vote patterns
// on a repeat (the decision counter reseeds each call).
func TestDecisionsUseFreshSeeds(t *testing.T) {
	p := testParams()
	p.Seed = 3
	a, err := New(20, p)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	a.ConfigureMC(0, metrics.NewMCCollector(reg), nil)
	q := query.New(query.Max, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if _, err := a.Decide(q); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Decide(q); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["mc_decisions_total"]; got != 2 {
		t.Fatalf("recorded %d decisions, want 2", got)
	}
	// Reproducibility across auditor instances: same seed, same history,
	// same decision ordinals ⇒ same outcomes.
	b, err := New(20, p)
	if err != nil {
		t.Fatal(err)
	}
	d1a, _ := New(20, p)
	for i := 0; i < 3; i++ {
		db, err1 := b.Decide(q)
		dc, err2 := d1a.Decide(q)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if db != dc {
			t.Fatalf("decision %d: instances with equal seeds diverged", i)
		}
	}
}
