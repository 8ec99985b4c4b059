package sumprob

import (
	"math"
	"math/rand"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

func params() Params {
	return Params{
		Game: mcpar.Game{
			Lambda: 0.5, Gamma: 4, Delta: 0.2, T: 10, Seed: 1,
		},
		OuterSamples: 8, InnerSamples: 150,
	}
}

// TestPolytopeSamplerUnconstrained: with no constraints the sampler must
// cover the unit cube uniformly.
func TestPolytopeSamplerUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p, err := newPolytope(nil, nil, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.dim() != 3 {
		t.Fatalf("dim = %d", p.dim())
	}
	w := p.newWalker()
	for i := 0; i < 100; i++ {
		w.step(rng)
	}
	var mean [3]float64
	const samples = 20000
	for s := 0; s < samples; s++ {
		w.step(rng)
		x := w.point()
		for j := range mean {
			mean[j] += x[j]
		}
	}
	for j := range mean {
		m := mean[j] / samples
		if math.Abs(m-0.5) > 0.03 {
			t.Fatalf("coordinate %d mean %g, want ≈ 0.5", j, m)
		}
	}
}

// TestPolytopeSamplerConstrained: x0+x1 = 1 over [0,1]² concentrates on
// the line segment; x0 uniform on [0,1].
func TestPolytopeSamplerConstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := newPolytope([][]float64{{1, 1}}, []float64{1}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.dim() != 1 {
		t.Fatalf("dim = %d, want 1", p.dim())
	}
	w := p.newWalker()
	for i := 0; i < 50; i++ {
		w.step(rng)
	}
	var mean, meanSq float64
	const samples = 20000
	for s := 0; s < samples; s++ {
		w.step(rng)
		x := w.point()
		if math.Abs(x[0]+x[1]-1) > 1e-6 {
			t.Fatalf("constraint violated: %v", x)
		}
		mean += x[0]
		meanSq += x[0] * x[0]
	}
	mean /= samples
	meanSq /= samples
	if math.Abs(mean-0.5) > 0.03 {
		t.Fatalf("x0 mean %g, want 0.5", mean)
	}
	// Var of U[0,1] is 1/12 ≈ 0.0833.
	if v := meanSq - mean*mean; math.Abs(v-1.0/12) > 0.015 {
		t.Fatalf("x0 variance %g, want ≈ 1/12", v)
	}
}

// TestPolytopeInfeasible: contradictory constraints are rejected.
func TestPolytopeInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, err := newPolytope([][]float64{{1, 1}, {1, 1}}, []float64{1, 1.5}, 2, rng)
	if err == nil {
		t.Fatal("contradictory answers must be infeasible")
	}
	// Out-of-box sums too: x0+x1 = 3 over [0,1]².
	_, err = newPolytope([][]float64{{1, 1}}, []float64{3}, 2, rng)
	if err == nil {
		t.Fatal("out-of-box sum must be infeasible")
	}
}

// TestSingletonDenied: a one-element sum pins its element.
func TestSingletonDenied(t *testing.T) {
	a, err := New(12, params())
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.Decide(query.New(query.Sum, 3)); d != audit.Deny {
		t.Fatal("singleton must be denied")
	}
}

// TestBroadSumAnswered: for a large enough table the whole-table sum
// moves no individual posterior appreciably (the tilt of the conditional
// decays as e^{O(1/√n)}; at small n whole-table sums genuinely breach
// partial disclosure — see TestSmallTableSumDenied).
func TestBroadSumAnswered(t *testing.T) {
	n := 32
	p := params()
	p.Lambda = 0.6
	p.InnerSamples = 300
	a, err := New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if d, derr := a.Decide(query.New(query.Sum, all...)); derr != nil || d != audit.Answer {
		t.Fatalf("whole-table sum should be answered: %v %v", d, derr)
	}
}

// TestSmallTableSumDenied: with few records even the total leaks — a
// typical answer shifts every element's conditional enough to leave the
// λ-window, so the simulatable auditor denies.
func TestSmallTableSumDenied(t *testing.T) {
	n := 8
	p := params()
	p.Lambda = 0.3 // tighter window makes the breach unambiguous
	a, err := New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.Decide(query.New(query.Sum, 0, 1, 2, 3, 4, 5, 6, 7)); d != audit.Deny {
		t.Fatal("small-table total should be denied under a tight window")
	}
}

// TestComplementAttackDenied: after the total is answered, an
// (n−1)-subset sum would localize the remaining element.
func TestComplementAttackDenied(t *testing.T) {
	n := 32
	p := params()
	p.Lambda = 0.6
	p.InnerSamples = 300
	a, err := New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(5)
	xs := randx.UniformDataset(rng, n, 0, 1)
	allIdx := make([]int, n)
	for i := range allIdx {
		allIdx[i] = i
	}
	all := query.New(query.Sum, allIdx...)
	if d, _ := a.Decide(all); d != audit.Answer {
		t.Fatal("whole-table sum should be answered at n=32, λ=0.6")
	}
	a.Record(all, all.Eval(xs))
	comp := query.New(query.Sum, allIdx[1:]...)
	if d, _ := a.Decide(comp); d != audit.Deny {
		t.Fatal("complement sum must be denied: it pins x0")
	}
}

// TestSimulatableAgreement: decisions depend only on history and seed.
func TestSimulatableAgreement(t *testing.T) {
	n := 16
	a1, _ := New(n, params())
	a2, _ := New(n, params())
	rng := randx.New(6)
	for step := 0; step < 3; step++ {
		set := randx.SubsetSizeBetween(rng, n, 6, n)
		q := query.New(query.Sum, set...)
		d1, _ := a1.Decide(q)
		d2, _ := a2.Decide(q)
		if d1 != d2 {
			t.Fatalf("step %d: decisions diverged", step)
		}
		if d1 == audit.Answer {
			ans := float64(len(set)) * 0.5
			a1.Record(q, ans)
			a2.Record(q, ans)
		}
	}
}
