package maxminprob

import (
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

func params() Params {
	return Params{
		Game: mcpar.Game{
			Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 10, Seed: 1,
		},
		OuterSamples: 8, InnerSamples: 16, MixFactor: 2,
	}
}

// TestValidate rejects bad parameters.
func TestValidate(t *testing.T) {
	bad := []Params{
		{Game: mcpar.Game{Lambda: 0, Gamma: 4, Delta: 0.1, T: 5}},
		{Game: mcpar.Game{Lambda: 0.3, Gamma: 0, Delta: 0.1, T: 5}},
		{Game: mcpar.Game{Lambda: 0.3, Gamma: 4, Delta: 1, T: 5}},
		{Game: mcpar.Game{Lambda: 0.3, Gamma: 4, Delta: 0.1, T: 0}},
	}
	for _, p := range bad {
		if _, err := New(5, p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

// TestSingletonDenied: singleton max and min queries are refused (Lemma 2
// pre-check: a one-color node violates the degree condition, and the
// posterior collapses regardless).
func TestSingletonDenied(t *testing.T) {
	a, err := New(10, params())
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.Decide(query.New(query.Max, 4)); d != audit.Deny {
		t.Fatal("singleton max must be denied")
	}
	if d, _ := a.Decide(query.New(query.Min, 4)); d != audit.Deny {
		t.Fatal("singleton min must be denied")
	}
}

// TestLargeFreshSetsAnswered: broad first queries are safe.
func TestLargeFreshSetsAnswered(t *testing.T) {
	n := 50
	a, err := New(n, params())
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if d, _ := a.Decide(query.New(query.Max, all...)); d != audit.Answer {
		t.Fatal("whole-set max should be answered")
	}
	a.Record(query.New(query.Max, all...), 0.98)
	if d, _ := a.Decide(query.New(query.Min, all...)); d != audit.Answer {
		t.Fatal("whole-set min should be answered after the max")
	}
}

// TestLemma2FallbackPaths: a min bag over two elements creates a
// 2-color node adjacent to the max node — Lemma 2's degree condition
// (2 ≥ 1 + 2) fails. With the enumeration fallback enabled (default)
// inference stays tractable and the decision comes from the posterior
// check (which denies such a revealing bag anyway); with the fallback
// disabled the query is denied outright, the paper's base behaviour.
func TestLemma2FallbackPaths(t *testing.T) {
	n := 50
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	qMax := query.New(query.Max, all...)
	qMin := query.New(query.Min, 0, 1)

	a, err := New(n, params())
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.Decide(qMax); d != audit.Answer {
		t.Fatal("first broad max should pass")
	}
	a.Record(qMax, 0.97)
	if !a.inferenceTractableForAllAnswers(qMin) {
		t.Fatal("small graphs must be tractable via enumeration")
	}
	if d, _ := a.Decide(qMin); d != audit.Deny {
		t.Fatal("a two-element min bag reveals too much: posterior check must deny")
	}

	// Fallback disabled (limit 1): outright denial at the pre-check.
	strict := params()
	strict.EnumerateLimit = 1
	b, err := New(n, strict)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := b.Decide(qMax); d != audit.Answer {
		t.Fatal("first broad max should pass")
	}
	b.Record(qMax, 0.97)
	if b.inferenceTractableForAllAnswers(qMin) {
		t.Fatal("with enumeration disabled the Lemma 2 violation must surface")
	}
	if d, _ := b.Decide(qMin); d != audit.Deny {
		t.Fatal("under-colored min bag must be denied outright")
	}
}

// TestSimulatableAgreement: two auditors with identical seeds and
// histories make identical decisions.
func TestSimulatableAgreement(t *testing.T) {
	n := 30
	a1, _ := New(n, params())
	a2, _ := New(n, params())
	rng := randx.New(2)
	for step := 0; step < 4; step++ {
		set := randx.SubsetSizeBetween(rng, n, 15, 30)
		kind := query.Max
		if step%2 == 1 {
			kind = query.Min
		}
		q := query.Query{Set: query.NewSet(set...), Kind: kind}
		d1, _ := a1.Decide(q)
		d2, _ := a2.Decide(q)
		if d1 != d2 {
			t.Fatalf("step %d: decisions diverged", step)
		}
		if d1 == audit.Answer {
			// Record a shared consistent answer drawn from an
			// independent sampler, so neither auditor's internal
			// random stream is perturbed asymmetrically.
			g, err := coloring.Build(a1.Synopsis())
			if err != nil {
				t.Fatal(err)
			}
			s, err := coloring.NewSampler(g, rng)
			if err != nil {
				t.Fatal(err)
			}
			s.Mix(3)
			ans := q.Eval(s.SampleDataset(rng))
			a1.Record(q, ans)
			a2.Record(q, ans)
		}
	}
}

// TestGameNoPanicsAndRecordsConsistent plays a short real game end to
// end: decisions never error, true answers always fold into the synopsis.
func TestGameNoPanicsAndRecordsConsistent(t *testing.T) {
	n := 24
	rng := randx.New(3)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	a, err := New(n, params())
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for round := 0; round < 6; round++ {
		kind := query.Max
		if round%2 == 1 {
			kind = query.Min
		}
		set := randx.SubsetSizeBetween(rng, n, n/2, n)
		q := query.Query{Set: query.NewSet(set...), Kind: kind}
		d, err := a.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		if d == audit.Answer {
			a.Record(q, q.Eval(xs))
			answered++
		}
	}
	if err := a.Synopsis().CheckInvariants(); err != nil {
		t.Fatalf("synopsis invariants: %v", err)
	}
}
