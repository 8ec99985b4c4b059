package randx

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestDeterminism: identical seeds give identical streams.
func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("seeded streams diverged")
		}
	}
}

// TestDuplicateFreeDataset: distinct, in range.
func TestDuplicateFreeDataset(t *testing.T) {
	rng := New(1)
	xs := DuplicateFreeDataset(rng, 500, 0, 1)
	seen := map[float64]bool{}
	for _, x := range xs {
		if x < 0 || x >= 1 {
			t.Fatalf("value %g out of [0,1)", x)
		}
		if seen[x] {
			t.Fatalf("duplicate %g", x)
		}
		seen[x] = true
	}
}

// TestSubsetNonEmptyAndMarginals: every element appears with frequency
// ≈ 1/2 and no empty subsets are produced.
func TestSubsetNonEmptyAndMarginals(t *testing.T) {
	rng := New(2)
	const n, trials = 10, 4000
	counts := make([]int, n)
	for tr := 0; tr < trials; tr++ {
		s := Subset(rng, n)
		if len(s) == 0 {
			t.Fatal("empty subset")
		}
		for _, i := range s {
			counts[i]++
		}
	}
	for i, c := range counts {
		f := float64(c) / trials
		if math.Abs(f-0.5) > 0.05 {
			t.Errorf("element %d frequency %g, want ≈ 0.5", i, f)
		}
	}
}

// TestSubsetOfSize: exact size, sorted, distinct, uniform-ish.
func TestSubsetOfSize(t *testing.T) {
	rng := New(3)
	for trial := 0; trial < 200; trial++ {
		s := SubsetOfSize(rng, 20, 7)
		if len(s) != 7 {
			t.Fatalf("size %d", len(s))
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("not sorted-distinct: %v", s)
			}
		}
	}
	if got := SubsetOfSize(rng, 5, 9); len(got) != 5 {
		t.Errorf("k > n must clamp, got %v", got)
	}
}

// TestRangeContiguous: contiguous, right width, within bounds.
func TestRangeContiguous(t *testing.T) {
	rng := New(4)
	for trial := 0; trial < 300; trial++ {
		r := Range(rng, 50, 10)
		if len(r) != 10 {
			t.Fatalf("width %d", len(r))
		}
		for i := 1; i < len(r); i++ {
			if r[i] != r[i-1]+1 {
				t.Fatalf("not contiguous: %v", r)
			}
		}
		if r[0] < 0 || r[len(r)-1] >= 50 {
			t.Fatalf("out of bounds: %v", r)
		}
	}
}

// TestWeightedIndexDistribution matches requested weights.
func TestWeightedIndexDistribution(t *testing.T) {
	rng := New(5)
	weights := []float64{1, 3, 6}
	counts := make([]float64, 3)
	const trials = 30000
	for i := 0; i < trials; i++ {
		idx := WeightedIndex(rng, weights)
		if idx < 0 || idx > 2 {
			t.Fatalf("index %d", idx)
		}
		counts[idx]++
	}
	for i, w := range weights {
		want := w / 10
		got := counts[i] / trials
		if math.Abs(got-want) > 0.02 {
			t.Errorf("index %d frequency %g, want %g", i, got, want)
		}
	}
}

// TestWeightedIndexDegenerate: invalid weights give -1.
func TestWeightedIndexDegenerate(t *testing.T) {
	rng := New(6)
	if WeightedIndex(rng, nil) != -1 {
		t.Error("nil weights")
	}
	if WeightedIndex(rng, []float64{0, 0}) != -1 {
		t.Error("zero weights")
	}
	if WeightedIndex(rng, []float64{1, -1}) != -1 {
		t.Error("negative weights")
	}
}

// TestCumulativeIndexMatchesWeightedIndex: over a weight vector,
// Cumulative.Index picks the same index as WeightedIndex from an equal
// random state, draw for draw, and leaves the two streams in step. The
// vectors cover length 1, equal weights, random weights of random
// length, and weights spanning 1 to 1e300, whose prefix sums stop
// growing once a huge weight has been added. "guide-sizes" builds guide
// tables of 1 to 1024 entries whatever the vector's length, so buckets
// both span many indices and split single ones. "extreme-draws" feeds
// chosen draws: u = 0; u = 1−2⁻⁵³, the largest Float64, whose
// r = fl(u·total) lands within one rounding of the total (it never
// reaches a finite total); u = fl(1/3) and fl(2/3) over unit weights,
// where r equals a prefix sum; and infinite totals, where u = 0 gives a
// NaN r that only the clamp to the last index ends.
func TestCumulativeIndexMatchesWeightedIndex(t *testing.T) {
	gen := New(11)
	random := func() []float64 {
		w := make([]float64, 1+gen.Intn(300))
		for i := range w {
			w[i] = gen.Float64() + 1e-9
		}
		return w
	}
	vectors := []struct {
		name string
		next func() []float64
		// guide, when set, draws each vector's guide-table size in
		// place of Set's.
		guide func() int
		// src, when set, replaces New(12)'s source in both streams.
		src func() rand.Source
	}{
		{name: "length-1", next: func() []float64 { return []float64{0.1 + gen.Float64()} }},
		{name: "all-equal", next: func() []float64 {
			w := make([]float64, 1+gen.Intn(300))
			for i := range w {
				w[i] = 1.0 / 3
			}
			return w
		}},
		{name: "random", next: random},
		{name: "1-to-1e300", next: func() []float64 {
			w := make([]float64, 2+gen.Intn(64))
			for i := range w {
				w[i] = math.Pow(10, 300*gen.Float64())
			}
			w[gen.Intn(len(w))] = 1
			w[gen.Intn(len(w))] = 1e300
			return w
		}},
		{name: "guide-sizes", next: random, guide: func() int { return 1 << gen.Intn(11) }},
		{name: "extreme-draws", next: func() []float64 {
			w := random()
			switch gen.Intn(4) {
			case 0:
				w[gen.Intn(len(w))] = math.Inf(1)
			case 1:
				w[0] = 1e300 // the later weights add nothing to the sums
			case 2:
				// 3k unit weights: u = fl(1/3) and fl(2/3) put r
				// exactly on the prefix sums k and 2k, inside a guide
				// bucket, and the scan must pass them.
				w = make([]float64, 3*(1+gen.Intn(100)))
				for i := range w {
					w[i] = 1
				}
			}
			return w
		}, src: func() rand.Source {
			third := int64(math.Ldexp(1.0/3, 63))
			return &cycleSource{vals: []int64{0, 1<<63 - 1024, third, 1, 2 * third, 1 << 62, 1<<63 - 2048, 1 << 40}}
		}},
	}
	const vecs, draws = 100, 200
	for _, vc := range vectors {
		t.Run(vc.name, func(t *testing.T) {
			a, b := New(12), New(12)
			if vc.src != nil {
				a, b = rand.New(vc.src()), rand.New(vc.src())
			}
			var c Cumulative
			for v := 0; v < vecs; v++ {
				w := vc.next()
				if vc.guide != nil {
					c.set(w, vc.guide())
				} else {
					c.Set(w)
				}
				for d := 0; d < draws; d++ {
					want, got := WeightedIndex(a, w), c.Index(b)
					if got != want {
						t.Fatalf("vector %d draw %d: Cumulative.Index %d, WeightedIndex %d (weights %v, guide %d)", v, d, got, want, w, len(c.guide))
					}
				}
			}
			if a.Int63() != b.Int63() {
				t.Fatal("the two random streams drifted apart")
			}
		})
	}
}

// cycleSource is a rand.Source whose Int63 cycles through vals.
type cycleSource struct {
	vals []int64
	i    int
}

func (s *cycleSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *cycleSource) Seed(int64) {}

// TestCumulativeIndexDegenerate: empty or zero-total weights give -1
// without drawing, as WeightedIndex does, a NaN total draws as it does
// there, and a reused Cumulative forgets the vector it held before.
func TestCumulativeIndexDegenerate(t *testing.T) {
	a, b := New(13), New(13)
	var c Cumulative
	for _, w := range [][]float64{nil, {0, 0}, {}} {
		c.Set([]float64{1, 2, 3})
		c.Set(w)
		if c.Index(a) != -1 {
			t.Fatalf("weights %v must give -1", w)
		}
	}
	if a.Int63() != b.Int63() {
		t.Fatal("a degenerate call consumed randomness")
	}
	// A NaN total is not ≤ 0: it draws, and runs to the last index.
	c.Set([]float64{1, math.NaN()})
	if got, want := c.Index(a), WeightedIndex(b, []float64{1, math.NaN()}); got != want {
		t.Fatalf("NaN total: Index %d, WeightedIndex %d", got, want)
	}
}

// TestCumulativeSetReuse: Set over a Cumulative last set to another
// vector, or to the same one, equals a fresh Set, prefix sums and guide
// table, and, warm, allocates nothing.
func TestCumulativeSetReuse(t *testing.T) {
	gen := New(14)
	var c Cumulative
	for v := 0; v < 50; v++ {
		w := make([]float64, 1+gen.Intn(300))
		for i := range w {
			w[i] = gen.Float64()
		}
		var fresh Cumulative
		fresh.Set(w)
		c.Set(w)
		if !slices.Equal(c.sums, fresh.sums) || !slices.Equal(c.guide, fresh.guide) {
			t.Fatalf("vector %d: reused Cumulative differs from a fresh Set", v)
		}
		if m := len(c.guide); m&(m-1) != 0 || m < 4*len(w) || m/2 >= 4*len(w) {
			t.Fatalf("vector %d: guide has %d entries for %d weights, want the least power of two ≥ 4 times it", v, m, len(w))
		}
	}
	// A vector of the same length whose sums differ only past the first
	// weight must rebuild the guide; the same vector again keeps it.
	w := []float64{3, 1, 4, 1, 5}
	for _, v := range [][]float64{w, {3, 1, 4, 1, 50}, {3, 1, 4, 1, 50}, w} {
		var fresh Cumulative
		fresh.Set(v)
		c.Set(v)
		if !slices.Equal(c.sums, fresh.sums) || !slices.Equal(c.guide, fresh.guide) {
			t.Fatalf("weights %v: reused Cumulative differs from a fresh Set", v)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { c.Set(w) }); allocs != 0 {
		t.Fatalf("warm Set made %.0f allocations, want 0", allocs)
	}
}

// TestSubsetSizeBetweenClamping.
func TestSubsetSizeBetweenClamping(t *testing.T) {
	rng := New(7)
	for i := 0; i < 100; i++ {
		s := SubsetSizeBetween(rng, 10, 0, 99)
		if len(s) < 1 || len(s) > 10 {
			t.Fatalf("size %d outside clamped range", len(s))
		}
	}
}

// TestSplitIndependence: child generators derived by Split do not
// perturb the parent's subsequent stream relative to a fresh clone, and
// distinct children differ.
func TestSplitIndependence(t *testing.T) {
	a := New(42)
	b := New(42)
	ca := Split(a)
	cb := Split(b)
	for i := 0; i < 50; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatal("identically derived children diverged")
		}
	}
	// Parents stay in lockstep after the split.
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("parents diverged after Split")
		}
	}
	// A second child differs from the first.
	ca2 := Split(a)
	same := true
	for i := 0; i < 10; i++ {
		if ca2.Float64() != ca.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("sibling children produced identical streams")
	}
}
