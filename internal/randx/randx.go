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
	"math/rand"
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

// CumulativeIndex draws an index i with probability
// (cum[i]−cum[i−1])/cum[len−1] from the prefix sums cum of non-negative
// weights, summed left to right. It is WeightedIndex over those weights
// in O(log len) time: it makes the same single draw, scaled by the same
// total, and binary-searches for the same index, the first i with
// r < cum[i] (clamped to the last index). It returns -1, without drawing,
// when cum is empty or its total is not positive.
func CumulativeIndex(rng *rand.Rand, cum []float64) int {
	last := len(cum) - 1
	if last < 0 || cum[last] <= 0 {
		return -1
	}
	r := rng.Float64() * cum[last]
	lo, hi := 0, last
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r < cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}
