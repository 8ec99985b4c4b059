package coloring

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"queryaudit/internal/query"
	"queryaudit/internal/synopsis"
)

// randomTruthSynopsis builds a consistent synopsis by answering random
// max/min queries from a real duplicate-free dataset on [0,1].
func randomTruthSynopsis(seed int64, n, steps int) (*synopsis.MaxMin, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	used := map[float64]bool{}
	for i := range xs {
		v := rng.Float64()
		for used[v] {
			v = rng.Float64()
		}
		used[v] = true
		xs[i] = v
	}
	b := synopsis.NewMaxMin(n, 0, 1)
	for s := 0; s < steps; s++ {
		var idx []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		set := query.NewSet(idx...)
		q := query.Query{Set: set, Kind: query.Max}
		if rng.Intn(2) == 0 {
			q.Kind = query.Min
		}
		ans := q.Eval(xs)
		if q.Kind == query.Max {
			_ = b.AddMax(set, ans)
		} else {
			_ = b.AddMin(set, ans)
		}
	}
	return b, xs
}

// TestQuickGraphWellFormed: graphs from consistent synopses always admit
// the dataset-induced coloring, which is always valid; the chain never
// leaves the valid set; sampled datasets always satisfy the synopsis.
func TestQuickGraphWellFormed(t *testing.T) {
	check := func(seed int64) bool {
		b, xs := randomTruthSynopsis(seed, 6, 5)
		g, err := Build(b)
		if err != nil {
			return false
		}
		c, err := g.ColoringFromDataset(xs)
		if err != nil || !g.Valid(c) {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		s, err := NewSamplerFrom(g, rng, c)
		if err != nil {
			return false
		}
		for step := 0; step < 50; step++ {
			s.Step()
			if !g.Valid(s.Coloring()) {
				return false
			}
		}
		// Lemma 1 sampling: the result must satisfy every predicate.
		ys := s.SampleDataset(rng)
		return satisfies(b, ys)
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// satisfies checks a dataset against all synopsis predicates.
func satisfies(b *synopsis.MaxMin, xs []float64) bool {
	for _, p := range b.MaxPreds() {
		m := xs[p.Set[0]]
		for _, i := range p.Set[1:] {
			if xs[i] > m {
				m = xs[i]
			}
		}
		switch p.Op {
		case synopsis.OpEq:
			if m != p.Value {
				return false
			}
		case synopsis.OpLt:
			if m >= p.Value {
				return false
			}
		case synopsis.OpLe:
			if m > p.Value {
				return false
			}
		}
	}
	for _, p := range b.MinPreds() {
		m := xs[p.Set[0]]
		for _, i := range p.Set[1:] {
			if xs[i] < m {
				m = xs[i]
			}
		}
		switch p.Op {
		case synopsis.OpEq:
			if m != p.Value {
				return false
			}
		case synopsis.OpLt:
			if m <= p.Value {
				return false
			}
		case synopsis.OpLe:
			if m < p.Value {
				return false
			}
		}
	}
	return true
}

// TestQuickInitialColoringAgreesWithExistence: whenever enumeration
// finds a valid coloring, the backtracking search finds one too.
func TestQuickInitialColoringAgreesWithExistence(t *testing.T) {
	check := func(seed int64) bool {
		b, _ := randomTruthSynopsis(seed, 5, 4)
		g, err := Build(b)
		if err != nil {
			return false
		}
		all := enumerate(g)
		c, err := g.InitialColoring()
		if len(all) == 0 {
			return err != nil
		}
		return err == nil && g.Valid(c)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(67))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCensusMatchesBuild: over seeded synopses — small ones, where
// palettes are short and Lemma 2 often fails, and prob-300-shaped wide
// ones — with candidate answers folded in, Census.Count fails exactly
// when BuildInto does, with the same error, and otherwise gives
// MeetsLemma2 and SpaceSize at every cap as the built graph does. One
// Census and one Graph serve every case, so buffer reuse is covered
// too. A synopsis over an unbounded data range is the error case.
func TestCensusMatchesBuild(t *testing.T) {
	var (
		c                  Census
		g                  Graph
		cases, failLemma2  int
		enumerable, failed int
	)
	caps := []int{1, 2, 3, 7, 64, 20000, math.MaxInt}
	check := func(label string, b *synopsis.MaxMin) {
		t.Helper()
		cases++
		cerr, gerr := c.Count(b), BuildInto(&g, b)
		if (cerr == nil) != (gerr == nil) || cerr != nil && cerr.Error() != gerr.Error() {
			t.Fatalf("%s: Count error %v, BuildInto error %v", label, cerr, gerr)
		}
		if cerr != nil {
			failed++
			return
		}
		if c.MeetsLemma2() != g.MeetsLemma2() {
			t.Fatalf("%s: Census.MeetsLemma2 %v, graph %v", label, c.MeetsLemma2(), g.MeetsLemma2())
		}
		if !g.MeetsLemma2() {
			failLemma2++
		}
		if g.SpaceSize(20000) < 20000 {
			enumerable++
		}
		for _, cp := range caps {
			if got, want := c.SpaceSize(cp), g.SpaceSize(cp); got != want {
				t.Fatalf("%s: Census.SpaceSize(%d) = %d, graph %d", label, cp, got, want)
			}
		}
	}
	// trials folds candidate answers of random queries into b, checking
	// each state that folds, and b itself.
	trials := func(label string, b *synopsis.MaxMin, rng *rand.Rand) {
		check(label, b)
		values := []float64{0, 1, rng.Float64()}
		for v := range b.EqValues() {
			values = append(values, v, v+1e-9, v-1e-9)
		}
		sort.Float64s(values) // EqValues is a map
		for k := 0; k < 12; k++ {
			var idx []int
			for i := 0; i < b.N(); i++ {
				if rng.Intn(3) == 0 {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				continue
			}
			kind := query.Max
			if k%2 == 1 {
				kind = query.Min
			}
			ans := values[rng.Intn(len(values))]
			if b.Fold(kind, query.NewSet(idx...), ans) != nil {
				continue
			}
			check(fmt.Sprintf("%s fold %d", label, k), b)
			b.Rollback()
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		b, _ := randomTruthSynopsis(seed, 4+int(seed%5), 2+int(seed%4))
		trials(fmt.Sprintf("small seed %d", seed), b, rand.New(rand.NewSource(seed)))
	}
	for seed := int64(1); seed <= 4; seed++ {
		trials(fmt.Sprintf("wide seed %d", seed), wideSynopsis(t, seed, int(2+seed*2)), rand.New(rand.NewSource(seed)))
	}
	unbounded := synopsis.NewMaxMin(3, math.Inf(-1), math.Inf(1))
	if err := unbounded.AddMax(query.NewSet(0, 1), 0.5); err != nil {
		t.Fatal(err)
	}
	check("unbounded", unbounded)
	if failLemma2 == 0 || enumerable == 0 || failed == 0 || cases-failed-failLemma2 == 0 {
		t.Fatalf("%d cases: %d fail Lemma 2, %d enumerable, %d errors; want each kind", cases, failLemma2, enumerable, failed)
	}
	t.Logf("%d cases: %d fail Lemma 2, %d enumerable, %d errors", cases, failLemma2, enumerable, failed)
}
