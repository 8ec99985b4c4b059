// Package randx provides deterministic, seedable random-number utilities
// used throughout the auditing library: duplicate-free uniform datasets,
// uniform random query subsets, and weighted choices.
//
// Everything in this package is built on math/rand.Rand so that
// experiments, tests and the simulatable auditors themselves are fully
// reproducible from a single seed. The auditors in this module never touch
// global randomness.
package randx

import (
	"math"
	"math/rand"
	"slices"
	"sort"
)

// New returns a deterministic generator seeded with seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives a new independent-looking generator from rng. It is used
// to hand child components their own streams so that consuming randomness
// in one component does not perturb another's sequence.
func Split(rng *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(rng.Int63()))
}

// UniformDataset returns n values drawn independently and uniformly from
// [lo, hi).
func UniformDataset(rng *rand.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + rng.Float64()*(hi-lo)
	}
	return xs
}

// DuplicateFreeDataset returns n values drawn uniformly from [lo, hi)
// conditioned on all values being distinct. The duplicate event has
// probability zero in the continuous model; with float64 it is merely
// astronomically unlikely, but we resample to keep the guarantee exact
// because the no-duplicates assumption is load-bearing for the synopsis
// blackbox of Section 2.2.
func DuplicateFreeDataset(rng *rand.Rand, n int, lo, hi float64) []float64 {
	for {
		xs := UniformDataset(rng, n, lo, hi)
		if distinct(xs) {
			return xs
		}
	}
}

func distinct(xs []float64) bool {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return false
		}
	}
	return true
}

// Subset returns a uniformly random subset of {0..n-1}: each element is
// included independently with probability 1/2. If the result is empty it
// is resampled, matching the paper's model of a query drawn uniformly at
// random from the set of all (nonempty) sum queries over the data.
func Subset(rng *rand.Rand, n int) []int {
	for {
		var q []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				q = append(q, i)
			}
		}
		if len(q) > 0 {
			return q
		}
	}
}

// SubsetOfSize returns a uniformly random k-element subset of {0..n-1}
// in sorted order, using a partial Fisher–Yates shuffle.
func SubsetOfSize(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

// SubsetSizeBetween returns a uniformly random subset whose size is drawn
// uniformly from [minSize, maxSize] (clamped to [1, n]).
func SubsetSizeBetween(rng *rand.Rand, n, minSize, maxSize int) []int {
	if minSize < 1 {
		minSize = 1
	}
	if maxSize > n {
		maxSize = n
	}
	if minSize > maxSize {
		minSize = maxSize
	}
	k := minSize + rng.Intn(maxSize-minSize+1)
	return SubsetOfSize(rng, n, k)
}

// Range returns the sorted contiguous index range [start, start+width) for
// a uniformly random start, modelling a one-dimensional range predicate
// over records sorted on a public attribute.
func Range(rng *rand.Rand, n, width int) []int {
	if width > n {
		width = n
	}
	start := rng.Intn(n - width + 1)
	q := make([]int, width)
	for i := range q {
		q[i] = start + i
	}
	return q
}

// WeightedIndex draws an index i with probability weights[i]/sum(weights).
// Weights must be non-negative with a positive sum; otherwise it returns -1.
func WeightedIndex(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return -1
		}
		total += w
	}
	if total <= 0 {
		return -1
	}
	r := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Cumulative draws an index i with probability w[i]/Σw from the prefix
// sums of non-negative weights w. Each draw is WeightedIndex over w in
// O(1) expected time: it makes the same single draw u, scales it by the
// same total into r, and returns the same index, the first i with
// r < sums[i] (clamped to the last index).
//
// The speed comes from a guide table (Chen's indexed search). With m a
// power of two, guide[b] is the first i with sums[i] > fl((b/m)·total).
// A draw reads b = ⌊u·m⌋, where u·m is exact, so u ≥ b/m; rounding is
// monotone, so r = fl(u·total) ≥ fl((b/m)·total) and the answer is at
// least guide[b]. Index scans forward from there, on average fewer than
// 1 + len/m entries. Both scans test !(x < sums[i]), the negation of the
// draw's own condition, so that a NaN (an infinite total times u = 0)
// runs to the last index, as it does in WeightedIndex.
type Cumulative struct {
	sums  []float64
	guide []int32
}

// Set rebuilds c over the weights w, reusing its buffers: once they have
// grown to fit, it allocates nothing. The prefix sums are summed left to
// right; the guide table has the least power of two ≥ 4·len(w) entries,
// so a draw's scan mostly stops at its first entry: with about len(w)
// entries its branches mispredict often enough to double the cost of a
// draw on near-uniform weights. A draw reads only the prefix sums and
// the guide, which is a function of them, so when the sums come out bit
// for bit as before the guide is kept.
func (c *Cumulative) Set(w []float64) {
	m := 1
	for m < 4*len(w) {
		m <<= 1
	}
	c.set(w, m)
}

// set is Set with a guide table of m entries, m a power of two.
func (c *Cumulative) set(w []float64, m int) {
	same := len(c.sums) == len(w)
	c.sums = slices.Grow(c.sums[:0], len(w))[:len(w)]
	acc := 0.0
	for i, x := range w {
		acc += x
		same = same && math.Float64bits(c.sums[i]) == math.Float64bits(acc)
		c.sums[i] = acc
	}
	last := len(c.sums) - 1
	if last < 0 || acc <= 0 {
		c.guide = c.guide[:0]
		return
	}
	if same && len(c.guide) == m {
		return
	}
	c.guide = slices.Grow(c.guide[:0], m)[:m]
	inv := 1 / float64(m) // exact, as is b·inv: m is a power of two
	i := 0
	for b := range c.guide {
		t := float64(b) * inv * acc
		for i < last && !(t < c.sums[i]) {
			i++
		}
		c.guide[b] = int32(i)
	}
}

// Sums returns the prefix sums: Sums()[i] is w[0] + … + w[i]. The slice
// aliases c; callers must not modify it.
func (c *Cumulative) Sums() []float64 { return c.sums }

// Index draws an index from rng. It returns -1, without drawing, when
// the weights are empty or their total is not positive.
func (c *Cumulative) Index(rng *rand.Rand) int {
	if !c.drawable() {
		return -1
	}
	return c.at(rng.Float64())
}

// IndexFrom is Index over rand.New(s), drawn from s directly.
func (c *Cumulative) IndexFrom(s *SplitMix) int {
	if !c.drawable() {
		return -1
	}
	return c.at(s.Float64())
}

// drawable reports whether the weights are non-empty with a total that
// is not ≤ 0 (a NaN total draws, as in WeightedIndex).
func (c *Cumulative) drawable() bool {
	return len(c.sums) > 0 && !(c.sums[len(c.sums)-1] <= 0)
}

// at returns the index the uniform draw u picks.
func (c *Cumulative) at(u float64) int {
	last := len(c.sums) - 1
	r := u * c.sums[last]
	i := int(c.guide[int(u*float64(len(c.guide)))])
	for i < last && !(r < c.sums[i]) {
		i++
	}
	return i
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}
