package maxprob

import (
	"math"
	"math/rand"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
)

// TestSafeClosedFormMatchesHandComputation checks Algorithm 1's formulas
// on a case computable by hand: [max{0,1,2} = 0.9] with γ = 4.
// y = (1−1/3)/(0.9·4) = 0.185…; cells 1–3 have ratio 4y ≈ 0.7407; cell 4
// holds the point mass: post = y·0.6 + 1/3, ratio ≈ 1.7778.
func TestSafeClosedFormMatchesHandComputation(t *testing.T) {
	syn := synopsis.NewMax(3)
	if err := syn.Add(query.NewSet(0, 1, 2), 0.9); err != nil {
		t.Fatal(err)
	}
	part := interval.NewPartition(0, 1, 4)
	// λ = 0.5 → window [0.5, 2]: both 0.7407 and 1.7778 inside → safe.
	if !SafeSynopsis(syn, part, interval.RatioWindow{Lambda: 0.5}) {
		t.Fatal("λ=0.5 should be safe")
	}
	// λ = 0.3 → window [0.7, 1.4286]: 1.7778 outside → unsafe.
	if SafeSynopsis(syn, part, interval.RatioWindow{Lambda: 0.3}) {
		t.Fatal("λ=0.3 should be unsafe (top-cell ratio 1.78)")
	}
}

// TestSafeBeyondIntervalAlwaysUnsafe: any answer below the top cell
// zeroes the posterior of some interval.
func TestSafeBeyondIntervalAlwaysUnsafe(t *testing.T) {
	syn := synopsis.NewMax(3)
	if err := syn.Add(query.NewSet(0, 1, 2), 0.6); err != nil {
		t.Fatal(err)
	}
	part := interval.NewPartition(0, 1, 4)
	if SafeSynopsis(syn, part, interval.RatioWindow{Lambda: 0.9}) {
		t.Fatal("an answer of 0.6 zeroes cells above it — never safe")
	}
}

// TestPosteriorFormulaMatchesMonteCarlo validates the closed-form
// posterior behind Algorithm 1 against empirical frequencies from
// SampleConsistent.
func TestPosteriorFormulaMatchesMonteCarlo(t *testing.T) {
	syn := synopsis.NewMax(4)
	if err := syn.Add(query.NewSet(0, 1, 2), 0.9); err != nil {
		t.Fatal(err)
	}
	rng := randx.New(5)
	const samples = 60000
	gamma := 5
	part := interval.NewPartition(0, 1, gamma)
	counts := make([]float64, gamma+1)
	for s := 0; s < samples; s++ {
		xs := SampleConsistent(syn, 4, rng)
		counts[part.CellIndex(xs[0])]++
	}
	M, sSize := 0.9, 3.0
	y := (1 - 1/sSize) / (M * float64(gamma))
	for j := 1; j <= gamma; j++ {
		want := y // cells fully below M
		if j == gamma {
			frac := M*float64(gamma) - math.Ceil(M*float64(gamma)) + 1
			want = y*frac + 1/sSize
		}
		got := counts[j] / samples
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("cell %d: empirical %g vs formula %g", j, got, want)
		}
	}
}

// TestSingletonDenied: a max over one fresh element is a full reveal of
// its distribution tail — denied.
func TestSingletonDenied(t *testing.T) {
	a, err := New(10, Params{Game: mcpar.Game{Lambda: 0.3, Gamma: 5, Delta: 0.1, T: 20, Seed: 1}, Samples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.Decide(query.New(query.Max, 3)); d != audit.Deny {
		t.Fatal("singleton must be denied")
	}
}

// TestLargeFreshSetAnswered: a first query over many elements barely
// moves any posterior and must be answered under a generous λ.
func TestLargeFreshSetAnswered(t *testing.T) {
	n := 80
	a, err := New(n, Params{Game: mcpar.Game{Lambda: 0.5, Gamma: 4, Delta: 0.2, T: 10, Seed: 2}, Samples: 96})
	if err != nil {
		t.Fatal(err)
	}
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	if d, _ := a.Decide(query.New(query.Max, set...)); d != audit.Answer {
		t.Fatal("a large fresh max query should be answered")
	}
}

// TestSimulatabilityDecisionIgnoresData: the decision may depend only on
// the history, never on the underlying data — two auditors with the same
// history and seed must agree on every decision regardless of the
// hypothetical data behind them.
func TestSimulatabilityDecisionIgnoresData(t *testing.T) {
	params := Params{Game: mcpar.Game{Lambda: 0.4, Gamma: 4, Delta: 0.2, T: 10, Seed: 7}, Samples: 48}
	a1, _ := New(30, params)
	a2, _ := New(30, params)
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 6; step++ {
		set := randx.SubsetSizeBetween(rng, 30, 5, 25)
		q := query.New(query.Max, set...)
		d1, _ := a1.Decide(q)
		d2, _ := a2.Decide(q)
		if d1 != d2 {
			t.Fatalf("step %d: decisions diverged with identical histories", step)
		}
		if d1 == audit.Answer {
			// Record the same (arbitrary but consistent) answer in both.
			xs := SampleConsistent(a1.Synopsis(), 30, rng)
			ans := q.Eval(xs)
			a1.Record(q, ans)
			a2.Record(q, ans)
		}
	}
}

// TestBoundedRangeEquivalence: the paper's footnote — other data ranges
// reduce to [0,1] by affine normalization. Decisions over salaries in
// [30k, 250k] must coincide with decisions over the normalized data.
func TestBoundedRangeEquivalence(t *testing.T) {
	const n = 40
	lo, hi := 30_000.0, 250_000.0
	base := Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 10, Seed: 3}, Samples: 64}
	scaled := base
	scaled.Alpha, scaled.Beta = lo, hi
	aUnit, _ := New(n, base)
	aScaled, _ := New(n, scaled)
	rng := rand.New(rand.NewSource(4))
	xsUnit := randx.DuplicateFreeDataset(rng, n, 0, 1)
	for step := 0; step < 6; step++ {
		set := randx.SubsetSizeBetween(rng, n, 10, n)
		q := query.New(query.Max, set...)
		d1, _ := aUnit.Decide(q)
		d2, _ := aScaled.Decide(q)
		if d1 != d2 {
			t.Fatalf("step %d: unit=%v scaled=%v", step, d1, d2)
		}
		if d1 == audit.Answer {
			ansUnit := q.Eval(xsUnit)
			aUnit.Record(q, ansUnit)
			aScaled.Record(q, lo+ansUnit*(hi-lo))
		}
	}
}

// TestPrivacyGameBreachRate plays the (λ, γ, T) game with a random
// attacker and verifies the empirical breach frequency stays within δ
// (plus Monte Carlo slack).
func TestPrivacyGameBreachRate(t *testing.T) {
	const (
		n      = 40
		trials = 40
	)
	params := Params{Game: mcpar.Game{Lambda: 0.4, Gamma: 4, Delta: 0.2, T: 8}, Samples: 64}
	part := interval.NewPartition(0, 1, params.Gamma)
	window := interval.RatioWindow{Lambda: params.Lambda}
	breaches := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
		p := params
		p.Seed = int64(trial)
		a, err := New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		truth := synopsis.NewMax(n)
		breached := false
		for round := 0; round < params.T; round++ {
			set := randx.SubsetSizeBetween(rng, n, 2, n)
			q := query.New(query.Max, set...)
			d, err := a.Decide(q)
			if err != nil {
				t.Fatal(err)
			}
			if d == audit.Deny {
				continue
			}
			ans := q.Eval(xs)
			a.Record(q, ans)
			if err := truth.Add(q.Set, ans); err != nil {
				t.Fatalf("true answer rejected: %v", err)
			}
			if !SafeSynopsis(truth, part, window) {
				breached = true
				break
			}
		}
		if breached {
			breaches++
		}
	}
	rate := float64(breaches) / trials
	if rate > params.Delta+0.15 {
		t.Fatalf("breach rate %g exceeds δ=%g by too much", rate, params.Delta)
	}
}
