package randx

import (
	"math"
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

// TestCumulativeIndexMatchesWeightedIndex: over the prefix sums of a
// positive weight vector, CumulativeIndex picks the same index as
// WeightedIndex from an equal random state, draw for draw, and leaves the
// two streams in step. The vectors cover length 1, equal weights, random
// weights of random length, and weights spanning 1 to 1e300, whose prefix
// sums stop growing once a huge weight has been added.
func TestCumulativeIndexMatchesWeightedIndex(t *testing.T) {
	gen := New(11)
	vectors := []struct {
		name string
		next func() []float64
	}{
		{"length-1", func() []float64 { return []float64{0.1 + gen.Float64()} }},
		{"all-equal", func() []float64 {
			w := make([]float64, 1+gen.Intn(300))
			for i := range w {
				w[i] = 1.0 / 3
			}
			return w
		}},
		{"random", func() []float64 {
			w := make([]float64, 1+gen.Intn(300))
			for i := range w {
				w[i] = gen.Float64() + 1e-9
			}
			return w
		}},
		{"1-to-1e300", func() []float64 {
			w := make([]float64, 2+gen.Intn(64))
			for i := range w {
				w[i] = math.Pow(10, 300*gen.Float64())
			}
			w[gen.Intn(len(w))] = 1
			w[gen.Intn(len(w))] = 1e300
			return w
		}},
	}
	const vecs, draws = 100, 200
	for _, vc := range vectors {
		t.Run(vc.name, func(t *testing.T) {
			a, b := New(12), New(12)
			for v := 0; v < vecs; v++ {
				w := vc.next()
				cum := make([]float64, len(w))
				acc := 0.0
				for i, x := range w {
					acc += x
					cum[i] = acc
				}
				for d := 0; d < draws; d++ {
					want, got := WeightedIndex(a, w), CumulativeIndex(b, cum)
					if got != want {
						t.Fatalf("vector %d draw %d: CumulativeIndex %d, WeightedIndex %d (weights %v)", v, d, got, want, w)
					}
				}
			}
			if a.Int63() != b.Int63() {
				t.Fatal("the two random streams drifted apart")
			}
		})
	}
}

// TestCumulativeIndexDegenerate: empty or zero-total prefix sums give -1
// without drawing, as WeightedIndex does.
func TestCumulativeIndexDegenerate(t *testing.T) {
	a, b := New(13), New(13)
	if CumulativeIndex(a, nil) != -1 || CumulativeIndex(a, []float64{0, 0}) != -1 {
		t.Fatal("degenerate prefix sums must give -1")
	}
	if a.Int63() != b.Int63() {
		t.Fatal("a degenerate call consumed randomness")
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
