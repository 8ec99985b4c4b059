package maxminprob

import (
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// TestSampleAllocs bounds the allocations of one outer Monte Carlo
// sample on a warm worker scratch at the prob-300 shape: n=300, the
// auditserver's prob parameters, the default budget and a history of
// twelve answered wide max and min queries. A sample rebases and mixes
// the worker's sampler, draws a dataset, makes the trial state of its
// answer current in the lane and runs safeState on it. Before the trial
// graph, witness counts and witness-mass table were per-worker scratch,
// a sample made 367 allocations here; with them it made 67, most of them
// a clone of the synopsis per trial fold. Folding in place and rolling
// back, it made 23: the fold's new predicates and their sets, and
// safeState's chain starting from a fresh backtracking coloring. Since
// the lane keeps its trial state, a sample that draws a new answer makes
// 17 (the chain's sampler is the lane's now, and only its starting
// coloring is new per state), held to the old bound of 30, and one that
// repeats the lane's answer makes none. The sequence is seeded, so the
// counts are deterministic and the bounds are safe in plain go test.
func TestSampleAllocs(t *testing.T) {
	const n = 300
	rng := randx.New(12)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	a, err := New(n, Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Workers: 1, Seed: 6}})
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
	sc := &decideScratch{xs: make([]float64, n), fixed: make([]bool, n), syn: a.syn.Clone()}
	src := randx.NewSplitMix(7, 0)
	q := history[len(history)-1]
	// Every sample replays stream 0, so each draws the same answer; a
	// new-answer sample first makes the lane forget it.
	sample := func(forget bool) {
		src.Reseed(7, 0)
		if forget {
			sc.loaded = false
		}
		a.unsafeSample(q, g, init, src, sc)
	}
	for k := 0; k < 8; k++ {
		sample(k%2 == 0)
	}
	if sc.post.exact != nil || sc.post.err != nil {
		t.Fatal("the sampled answer's trial state does not run the chain")
	}
	fresh := testing.AllocsPerRun(64, func() { sample(true) })
	if fresh > 30 {
		t.Fatalf("a sample drawing a new answer made %.1f allocations, want at most 30", fresh)
	}
	repeat := testing.AllocsPerRun(64, func() { sample(false) })
	if repeat > 0 {
		t.Fatalf("a sample repeating the lane's answer made %.1f allocations, want 0", repeat)
	}
	t.Logf("one sample over a %d-node graph: %.1f allocations drawing a new answer, %.1f repeating one", g.K(), fresh, repeat)
}
