package maxminprob

import (
	"math"
	"math/rand"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// TestOneSideBoundedRangeIsConstrained pins the range-only λ-window
// verdict of an element that carries no witness mass. An element whose
// range is all of [0,1] keeps the prior and is safe; an element bounded
// on one side only — [0, h] with h < 1 under an answered max, [l, 1]
// with l > 0 under an answered min — has its posterior piled on part of
// [0,1] and must count as constrained: here that breaks the window.
func TestOneSideBoundedRangeIsConstrained(t *testing.T) {
	const n = 12
	for _, c := range []struct {
		name string
		q    query.Query
		ans  float64
	}{
		{"max bounds above", query.New(query.Max, 0, 1), 0.3},
		{"min bounds below", query.New(query.Min, 0, 1), 0.7},
	} {
		a, err := New(n, params())
		if err != nil {
			t.Fatal(err)
		}
		a.Record(c.q, c.ans)
		ps := new(posterior)
		ps.load(a, a.syn, nil)
		if ps.err != nil {
			t.Fatal(ps.err)
		}
		if r := ps.g.Range(0); (r.Lo > 0) == (r.Hi < 1) {
			t.Fatalf("%s: element 0 has range [%g, %g], want one side bounded", c.name, r.Lo, r.Hi)
		}
		rangeOnly := func(i int) verdict { return verdictOf(ps.win.rangeSafe[ps.win.class[i]]) }
		if v := rangeOnly(0); v != unsafe {
			t.Fatalf("%s: range-only verdict %v for a one-side-bounded element, want unsafe", c.name, v)
		}
		if v := rangeOnly(n - 1); v != safe {
			t.Fatalf("%s: range-only verdict %v for an unconstrained element, want safe", c.name, v)
		}
		// No node carries witness mass: every element is judged by its
		// range alone.
		probs := make([][]float64, ps.g.K())
		for v := range probs {
			probs[v] = make([]float64, len(ps.g.Nodes[v].Colors))
		}
		if a.safeWindow(ps, probs, 1) {
			t.Fatalf("%s: λ-window safe with a one-side-bounded element and no witness mass", c.name)
		}
	}
}

// TestMassBoundMatchesExactWindow checks the λ-window's fast accept, an
// element whose witness mass is below its range class's bound, against
// the exact per-cell loop, in two parts.
//
// On random ranges — some inside one cell, so that their overlap
// fractions are 0 and 1, and the full range [0,1] — and random witness
// entries it draws masses within a few ulps of the class's bound, and
// at random. Every accepted mass must pass the exact loop wherever its
// witnesses fall: spread at random, all in one cell, or on a cell's
// lower edge. A class with a fraction of 0 or 1 must have no bound, and
// the bound must be tight: two margins above it, putting all the mass
// in one of the cells breaks the window.
//
// On the trial states of a seeded prob-300-shaped game, every sample's
// window must give the same verdict with the bounds as with every bound
// at −∞, which sends each hit element through the exact loop.
func TestMassBoundMatchesExactWindow(t *testing.T) {
	a, err := New(4, Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12}})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(31)
	var accepted, nearBound, unbounded, tight int
	for trial := 0; trial < 4000; trial++ {
		lo, hi := rng.Float64(), rng.Float64()
		switch trial % 4 {
		case 1: // inside one cell
			j := float64(rng.Intn(4))
			lo, hi = (j+rng.Float64()*0.5)/4, (j+0.5+rng.Float64()*0.5)/4
		case 2:
			lo, hi = 0, 1
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		fracs := make([]float64, len(a.cells))
		inside := true
		for j, cell := range a.cells {
			fracs[j] = interval.Interval{Lo: lo, Hi: hi}.OverlapFraction(cell)
			inside = inside && fracs[j] > 0 && fracs[j] < 1
		}
		b := massBound(fracs, a.prior, a.params.Lambda)
		if !inside {
			if !math.IsInf(b, -1) {
				t.Fatalf("range [%g, %g], fractions %v: bound %g, want −∞", lo, hi, fracs, b)
			}
			unbounded++
			continue
		}
		targets := []float64{rng.Float64(), b}
		for k := 1; k <= 4; k++ {
			targets = append(targets, ulps(b, k), ulps(b, -k))
		}
		for _, target := range targets {
			if target <= 0 {
				continue
			}
			for place := -2; place < len(a.cells); place++ {
				wit := witnesses(a, rng, target, place)
				var w float64
				for _, m := range wit {
					w += m.p
				}
				if !(w < b) {
					continue
				}
				accepted++
				if target != targets[0] {
					nearBound++
				}
				if !a.safeCells(fracs, wit) {
					t.Fatalf("range [%g, %g]: mass %v below the bound %v breaks the window, entries %v", lo, hi, w, b, wit)
				}
			}
		}
		if b > 0 && b+2*boundMargin < 1 {
			over := b + 2*boundMargin
			broken := false
			for place := 0; place < len(a.cells); place++ {
				broken = broken || !a.safeCells(fracs, witnesses(a, rng, over, place))
			}
			if !broken {
				t.Fatalf("range [%g, %g]: mass %v, two margins over the bound, passes in every placement", lo, hi, over)
			}
			tight++
		}
	}
	t.Logf("synthetic: %d accepted masses (%d within ulps of the bound), %d unbounded classes, %d tight bounds", accepted, nearBound, unbounded, tight)
	if nearBound == 0 || unbounded == 0 || tight == 0 {
		t.Fatal("the synthetic part missed a case")
	}

	windows, fast := gameWindows(t, func(a *Auditor, ps *posterior, counts [][]float64, scale float64) {
		want := a.safeWindow(ps, counts, scale)
		w := &ps.win
		bounds := append([]float64(nil), w.bound...)
		for c := range w.bound {
			w.bound[c] = math.Inf(-1)
		}
		if got := a.safeWindow(ps, counts, scale); got != want {
			t.Fatalf("window verdict %v with every bound at −∞, %v with the bounds", got, want)
		}
		copy(w.bound, bounds)
	})
	t.Logf("game: %d windows, %d of their hit elements accepted by the bound", windows, fast)
	if fast == 0 {
		t.Fatal("no hit element was accepted by its bound")
	}
}

// ulps steps x by k units in the last place.
func ulps(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// witnesses returns one to four witness entries whose masses sum to
// about total: with values anywhere in [0,1] (place −2), on the lower
// edges of random cells (−1), or all inside cell place, the last cell's
// on its closed upper edge too.
func witnesses(a *Auditor, rng *rand.Rand, total float64, place int) []witnessMass {
	k := 1 + rng.Intn(4)
	wit := make([]witnessMass, k)
	left := total
	for i := range wit {
		p := left
		if i < k-1 {
			p = left * rng.Float64()
		}
		left -= p
		var v float64
		switch {
		case place == -2:
			v = rng.Float64()
		case place == -1:
			v = a.cells[rng.Intn(len(a.cells))].Lo
		case place == len(a.cells)-1 && i == 0:
			v = a.cells[place].Hi
		default:
			c := a.cells[place]
			v = c.Lo + rng.Float64()*(c.Hi-c.Lo)
		}
		wit[i] = witnessMass{value: v, p: p}
	}
	return wit
}

// gameWindows plays a seeded prob-300-shaped game and calls check on the
// λ-window of every sample's trial state, after the sample ran. It
// returns the number of windows checked and how many hit elements the
// bounds accepted in them.
func gameWindows(t *testing.T, check func(a *Auditor, ps *posterior, counts [][]float64, scale float64)) (windows, fast int) {
	t.Helper()
	const n = 300
	rng := randx.New(22)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	a, err := New(n, Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Workers: 1, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 24; step++ {
		kind := query.Max
		if step%2 == 1 {
			kind = query.Min
		}
		set := randx.SubsetSizeBetween(rng, n, 60, n)
		if step%3 == 1 {
			set = randx.Range(rng, n, 60+rng.Intn(90))
		}
		q := query.New(kind, set...)
		if a.inferenceTractableForAllAnswers(q) {
			g, err := coloring.Build(a.syn)
			if err != nil {
				t.Fatal(err)
			}
			init, err := g.InitialColoring()
			if err != nil {
				t.Fatal(err)
			}
			sc := &decideScratch{xs: make([]float64, n), fixed: make([]bool, n), syn: a.syn.Clone()}
			seed := randx.DeriveSeed(77, uint64(step))
			for i := 0; i < a.params.outer(); i++ {
				a.unsafeSample(q, g, init, randx.NewSplitMix(seed, uint64(i)), sc)
				ps := &sc.post
				if ps.err != nil {
					continue
				}
				counts, scale := ps.probs, float64(a.params.inner())
				if ps.exact != nil {
					counts, scale = ps.exact, 1
				}
				check(a, ps, counts, scale)
				windows++
				for v := range ps.g.Nodes {
					for ci, col := range ps.g.Nodes[v].Colors {
						ps.win.mass[col] += counts[v][ci]
					}
				}
				for i, m := range ps.win.mass {
					if m > 0 && m < ps.win.bound[ps.win.class[i]]*scale {
						fast++
					}
					ps.win.mass[i] = 0
				}
			}
			sc.close()
		}
		d, err := a.Decide(q)
		if err != nil {
			t.Fatal(err)
		}
		if d == audit.Answer {
			a.Record(q, q.Eval(xs))
		}
	}
	return windows, fast
}
