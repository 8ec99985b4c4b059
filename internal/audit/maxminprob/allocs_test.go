package maxminprob

import (
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// TestSampleAllocs bounds the allocations of one outer Monte Carlo
// sample on a warm worker scratch at the prob-300 shape: n=300, the
// auditserver's prob parameters, the default budget and a history of
// twelve answered wide max and min queries. A sample rebases and mixes
// the worker's sampler, draws a dataset, folds the answer into a trial
// synopsis (With) and runs safeState on it. Before the trial graph,
// witness counts and witness-mass table were per-worker scratch, a
// sample made 367 allocations here; it now makes 67. Most of the rest is
// With's clone of the synopsis, and safeState's chain starts from a
// fresh backtracking coloring. The sequence is seeded, so the count is
// deterministic and the bound is safe in plain go test.
func TestSampleAllocs(t *testing.T) {
	const n = 300
	rng := randx.New(12)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	a, err := New(n, Params{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Workers: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var history []query.Query
	for k := 0; len(history) < 12 && k < 200; k++ {
		kind := query.Max
		if k%2 == 1 {
			kind = query.Min
		}
		q := query.New(kind, randx.SubsetSizeBetween(rng, n, 60, 300)...)
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, q.Eval(xs))
			history = append(history, q)
		}
	}
	g, err := coloring.Build(a.syn)
	if err != nil {
		t.Fatal(err)
	}
	init, err := g.InitialColoring()
	if err != nil {
		t.Fatal(err)
	}
	sc := &decideScratch{xs: make([]float64, n), fixed: make([]bool, n)}
	srng := randx.New(7)
	q := history[len(history)-1]
	for k := 0; k < 8; k++ {
		a.unsafeSample(q, g, init, srng, sc)
	}
	allocs := testing.AllocsPerRun(64, func() { a.unsafeSample(q, g, init, srng, sc) })
	if allocs > 80 {
		t.Fatalf("one sample made %.1f allocations, want at most 80", allocs)
	}
	t.Logf("one sample over a %d-node graph: %.1f allocations", g.K(), allocs)
}
