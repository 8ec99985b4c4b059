package coloring

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"queryaudit/internal/query"
	"queryaudit/internal/synopsis"
)

// buildSynopsis folds the given answered queries into a fresh [0,1]
// synopsis, failing the test on inconsistency.
func buildSynopsis(t *testing.T, n int, adds func(b *synopsis.MaxMin) error) *synopsis.MaxMin {
	t.Helper()
	b := synopsis.NewMaxMin(n, 0, 1)
	if err := adds(b); err != nil {
		t.Fatalf("building synopsis: %v", err)
	}
	return b
}

// TestGraphShapePaperExample builds the Section 3.2 example —
// [max{a,b,c}=1], [min{a,b}=0.2] — and checks the graph structure.
func TestGraphShapePaperExample(t *testing.T) {
	b := buildSynopsis(t, 3, func(b *synopsis.MaxMin) error {
		if err := b.AddMax(query.NewSet(0, 1, 2), 1); err != nil {
			return err
		}
		return b.AddMin(query.NewSet(0, 1), 0.2)
	})
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 2 {
		t.Fatalf("K = %d, want 2 nodes", g.K())
	}
	for _, v := range g.Nodes {
		if v.IsMax && len(v.Colors) != 3 {
			t.Errorf("max node colors = %v, want 3", v.Colors)
		}
		if !v.IsMax && len(v.Colors) != 2 {
			t.Errorf("min node colors = %v, want 2", v.Colors)
		}
		if len(v.Adj) != 1 {
			t.Errorf("node adjacency = %v, want 1 edge", v.Adj)
		}
	}
}

// enumerate all valid colorings by brute force.
func enumerate(g *Graph) [][]int {
	var out [][]int
	c := make([]int, g.K())
	var rec func(v int)
	rec = func(v int) {
		if v == g.K() {
			if g.Valid(c) {
				out = append(out, append([]int(nil), c...))
			}
			return
		}
		for _, col := range g.Nodes[v].Colors {
			c[v] = col
			rec(v + 1)
		}
	}
	rec(0)
	return out
}

// TestChainMatchesExactDistribution runs the Markov chain on a small
// graph and compares empirical coloring frequencies with P̃ computed by
// enumeration. Total variation must be small.
func TestChainMatchesExactDistribution(t *testing.T) {
	b := buildSynopsis(t, 4, func(b *synopsis.MaxMin) error {
		if err := b.AddMax(query.NewSet(0, 1, 2), 0.9); err != nil {
			return err
		}
		return b.AddMin(query.NewSet(1, 2, 3), 0.2)
	})
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	all := enumerate(g)
	if len(all) < 3 {
		t.Fatalf("expected several valid colorings, got %d", len(all))
	}
	exact := make(map[string]float64)
	var z float64
	for _, c := range all {
		w := g.Weight(c)
		exact[key(c)] = w
		z += w
	}
	for k := range exact {
		exact[k] /= z
	}

	rng := rand.New(rand.NewSource(3))
	s, err := NewSampler(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	s.Mix(5) // burn-in
	emp := make(map[string]float64)
	const samples = 60000
	for i := 0; i < samples; i++ {
		for j := 0; j < 4; j++ {
			s.Step()
		}
		emp[key(s.Coloring())]++
	}
	tv := 0.0
	for k, p := range exact {
		tv += math.Abs(p - emp[k]/samples)
	}
	for k, cnt := range emp {
		if _, ok := exact[k]; !ok {
			t.Fatalf("chain visited invalid coloring %s (%g times)", k, cnt)
		}
	}
	tv /= 2
	if tv > 0.02 {
		t.Fatalf("total variation %g too large (exact=%v)", tv, exact)
	}
}

func key(c []int) string {
	out := ""
	for _, v := range c {
		out += string(rune('a' + v))
	}
	return out
}

// TestLemma1DatasetSampler compares Lemma 1's two-stage sampler with
// direct rejection sampling on the probability that a specific element
// exceeds a threshold.
func TestLemma1DatasetSampler(t *testing.T) {
	b := buildSynopsis(t, 3, func(b *synopsis.MaxMin) error {
		return b.AddMax(query.NewSet(0, 1, 2), 0.8)
	})
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	s, err := NewSampler(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	s.Mix(5)
	const samples = 40000
	hit := 0
	for i := 0; i < samples; i++ {
		s.Step()
		xs := s.SampleDataset(rng)
		// Check constraint satisfaction always.
		m := math.Max(xs[0], math.Max(xs[1], xs[2]))
		if m != 0.8 {
			t.Fatalf("sampled dataset violates max=0.8: %v", xs)
		}
		if xs[0] > 0.5 {
			hit++
		}
	}
	got := float64(hit) / samples
	// Analytic: x0 = 0.8 w.p. 1/3; else uniform [0,0.8): P(>0.5)=3/8.
	want := 1.0/3 + (2.0/3)*(0.3/0.8)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("P(x0 > 0.5) = %g, want ≈ %g", got, want)
	}
}

// TestPinnedPairNoEdge: a pinned element's two singleton predicates must
// share their witness without an edge conflict.
func TestPinnedPairNoEdge(t *testing.T) {
	b := buildSynopsis(t, 3, func(b *synopsis.MaxMin) error {
		if err := b.AddMax(query.NewSet(0, 1), 0.5); err != nil {
			return err
		}
		return b.AddMin(query.NewSet(1, 2), 0.5) // pins x1 = 0.5
	})
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.InitialColoring()
	if err != nil {
		t.Fatalf("no valid coloring for pinned pair: %v", err)
	}
	if !g.Valid(c) {
		t.Fatal("initial coloring invalid")
	}
}

// TestMeetsLemma2 flags under-sized palettes.
func TestMeetsLemma2(t *testing.T) {
	// Two nodes sharing elements with |S| = 2 and degree 1: 2 < 1+2.
	b := buildSynopsis(t, 3, func(b *synopsis.MaxMin) error {
		if err := b.AddMax(query.NewSet(0, 1), 0.9); err != nil {
			return err
		}
		return b.AddMin(query.NewSet(0, 1), 0.1)
	})
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.MeetsLemma2() {
		t.Fatal("2-color degree-1 nodes must fail Lemma 2's condition")
	}
	// One isolated predicate over 3 elements: 3 ≥ 0+2.
	b2 := buildSynopsis(t, 3, func(b *synopsis.MaxMin) error {
		return b.AddMax(query.NewSet(0, 1, 2), 0.9)
	})
	g2, err := Build(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.MeetsLemma2() {
		t.Fatal("an isolated 3-element predicate satisfies Lemma 2")
	}
}

// TestColoringFromDataset reconstructs witnesses from a concrete state.
func TestColoringFromDataset(t *testing.T) {
	b := buildSynopsis(t, 3, func(b *synopsis.MaxMin) error {
		return b.AddMax(query.NewSet(0, 1, 2), 0.8)
	})
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.ColoringFromDataset([]float64{0.1, 0.8, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if c[0] != 1 {
		t.Fatalf("witness = %d, want element 1", c[0])
	}
	if _, err := g.ColoringFromDataset([]float64{0.1, 0.2, 0.3}); err == nil {
		t.Fatal("dataset not attaining the bound must be rejected")
	}
}

// TestExactWitnessProbsMatchesEnumeration: the exact marginals equal
// direct enumeration over P̃, and match the paper's 5/18 example.
func TestExactWitnessProbsMatchesEnumeration(t *testing.T) {
	b := buildSynopsis(t, 3, func(b *synopsis.MaxMin) error {
		if err := b.AddMax(query.NewSet(0, 1, 2), 1); err != nil {
			return err
		}
		return b.AddMin(query.NewSet(0, 1), 0.2)
	})
	g, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	probs, ok := ExactWitnessProbs(g, 10000)
	if !ok {
		t.Fatal("small graph must be enumerable")
	}
	for vi, v := range g.Nodes {
		if !v.IsMax {
			continue
		}
		for ci, col := range v.Colors {
			if col == 0 { // element a
				want := 5.0 / 18
				if math.Abs(probs[vi][ci]-want) > 1e-12 {
					t.Fatalf("P(witness=a) = %g, want %g", probs[vi][ci], want)
				}
			}
		}
	}
	// Marginals sum to 1 per node.
	for vi := range probs {
		total := 0.0
		for _, p := range probs[vi] {
			total += p
		}
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("node %d marginals sum to %g", vi, total)
		}
	}
	// Limit respected.
	if _, ok := ExactWitnessProbs(g, 2); ok {
		t.Fatal("limit must refuse large spaces")
	}
}

// wideSynopsis folds the true answers of alternating max and min
// queries over random sets of 60–300 rows into an n=300 synopsis on
// [0,1], the prob-300 shape: a handful of nodes with wide palettes.
func wideSynopsis(t *testing.T, seed int64, queries int) *synopsis.MaxMin {
	t.Helper()
	const n = 300
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i, r := range rng.Perm(n) {
		xs[i] = (float64(r) + 0.5) / n
	}
	b := synopsis.NewMaxMin(n, 0, 1)
	for k := 0; k < queries; k++ {
		q := query.NewSet(rng.Perm(n)[:60+rng.Intn(241)]...)
		kind := query.Max
		if k%2 == 1 {
			kind = query.Min
		}
		ans := query.Query{Set: q, Kind: kind}.Eval(xs)
		add := b.AddMax
		if kind == query.Min {
			add = b.AddMin
		}
		if err := add(q, ans); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestBuildIntoReuse: BuildInto over a graph last built from a different
// synopsis equals a fresh Build — nodes, prefix sums, adjacency and the
// range table — and, warm, allocates nothing.
func TestBuildIntoReuse(t *testing.T) {
	var g Graph
	for seed := int64(1); seed <= 6; seed++ {
		b := wideSynopsis(t, seed, int(2+seed*2))
		fresh, err := Build(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := BuildInto(&g, b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Nodes, fresh.Nodes) {
			t.Fatalf("seed %d: reused graph nodes differ from a fresh build", seed)
		}
		for i := 0; i < b.N(); i++ {
			if g.Range(i) != b.RangeOf(i) {
				t.Fatalf("seed %d: Range(%d) = %+v, RangeOf = %+v", seed, i, g.Range(i), b.RangeOf(i))
			}
		}
		for _, v := range g.Nodes {
			acc := 0.0
			for ci, w := range v.Weights {
				acc += w
				if v.Cum[ci] != acc {
					t.Fatalf("seed %d: Cum[%d] = %g, want %g", seed, ci, v.Cum[ci], acc)
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = BuildInto(&g, b) }); allocs != 0 {
			t.Fatalf("seed %d: warm BuildInto made %.0f allocations, want 0", seed, allocs)
		}
	}
}

// TestStepAllocs: a chain step allocates nothing, and the palette
// positions the sampler tracks stay those of its colors. Step made 0
// allocations before prefix sums too (it drew through
// randx.WeightedIndex over a copy of the node); this pins the count.
func TestStepAllocs(t *testing.T) {
	g, err := Build(wideSynopsis(t, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(g, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, s.Step); allocs != 0 {
		t.Fatalf("Step made %.0f allocations, want 0", allocs)
	}
	for v, ci := range s.CurrentIndices() {
		if g.Nodes[v].Colors[ci] != s.Current()[v] {
			t.Fatalf("node %d: palette index %d names color %d, coloring has %d", v, ci, g.Nodes[v].Colors[ci], s.Current()[v])
		}
	}
}
