package synopsis

import (
	"math"
	"slices"

	"queryaudit/internal/query"
)

// Range is the value range an element is confined to by the combined
// synopsis: Lo {<, ≤} x {<, ≤} Hi according to the strictness flags.
type Range struct {
	Lo, Hi             float64
	LoStrict, HiStrict bool
}

// Pinned reports whether the range determines the value exactly.
func (r Range) Pinned() bool {
	return r.Lo == r.Hi && !r.LoStrict && !r.HiStrict
}

// Empty reports whether no value satisfies the range.
func (r Range) Empty() bool {
	if r.Lo > r.Hi {
		return true
	}
	if r.Lo == r.Hi {
		return r.LoStrict || r.HiStrict
	}
	return false
}

// Length returns the measure Hi − Lo (zero when pinned or empty).
func (r Range) Length() float64 {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo
}

// Contains reports whether v satisfies the range constraints.
func (r Range) Contains(v float64) bool {
	if v < r.Lo || (v == r.Lo && r.LoStrict) {
		return false
	}
	if v > r.Hi || (v == r.Hi && r.HiStrict) {
		return false
	}
	return true
}

// MaxMin is the combined synopsis B = (B_max, B_min) of Sections 3.2 and
// 4, including the paper's normalization: whenever a max equality
// predicate and a min equality predicate hold the same value M, their
// unique common element is pinned to M and split out of both sets.
type MaxMin struct {
	max *Max
	min *Min
	// alpha/beta bound the data range for Range computations; classical
	// (full-disclosure) callers use ±Inf.
	alpha, beta float64
}

// NewMaxMin returns an empty combined synopsis over n elements with data
// range [alpha, beta]. Use math.Inf bounds for the unbounded classical
// setting.
func NewMaxMin(n int, alpha, beta float64) *MaxMin {
	return &MaxMin{max: NewMax(n), min: NewMin(n), alpha: alpha, beta: beta}
}

// N returns the number of elements covered.
func (b *MaxMin) N() int { return b.max.N() }

// Alpha returns the lower end of the data range.
func (b *MaxMin) Alpha() float64 { return b.alpha }

// Beta returns the upper end of the data range.
func (b *MaxMin) Beta() float64 { return b.beta }

// Clone returns a deep copy.
func (b *MaxMin) Clone() *MaxMin {
	return &MaxMin{max: b.max.Clone(), min: b.min.Clone(), alpha: b.alpha, beta: b.beta}
}

// MaxPreds returns the current max-side predicates.
func (b *MaxMin) MaxPreds() []Pred { return b.max.Preds() }

// MinPreds returns the current min-side predicates (min orientation).
func (b *MaxMin) MinPreds() []Pred { return b.min.Preds() }

// AppendEqPreds appends the equality predicates to dst, the max side's
// sorted by ID and then the min side's (min orientation) sorted by ID,
// and returns the extended slice and the number of max-side predicates
// it appended. It copies no sets: they alias the synopsis and must not
// be modified or kept past its next change.
func (b *MaxMin) AppendEqPreds(dst []Pred) ([]Pred, int) {
	start := len(dst)
	dst = b.max.appendEqPreds(dst)
	mid := len(dst)
	dst = b.min.inner.appendEqPreds(dst)
	for i := mid; i < len(dst); i++ {
		dst[i].Value = -dst[i].Value
	}
	return dst, mid - start
}

// With returns a copy of the synopsis with the answered query
// [max(Q) = a] (kind query.Max) or [min(Q) = a] (kind query.Min) folded
// in and normalized. It is the only trial-fold path: the copy is the one
// clone a trial costs, the fold and the consistency check run on it, and
// b is never modified. On inconsistency it returns a nil synopsis and
// ErrInconsistent.
func (b *MaxMin) With(kind query.Kind, q query.Set, a float64) (*MaxMin, error) {
	t := b.Clone()
	var err error
	if kind == query.Max {
		err = t.max.Add(q, a)
	} else {
		err = t.min.Add(q, a)
	}
	if err == nil {
		err = t.normalizeAndCheck(a)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AddMax folds [max(Q) = a] into the synopsis, applying normalization.
// On inconsistency the synopsis is unchanged.
func (b *MaxMin) AddMax(q query.Set, a float64) error { return b.add(query.Max, q, a) }

// AddMin folds [min(Q) = a] into the synopsis, applying normalization.
// On inconsistency the synopsis is unchanged.
func (b *MaxMin) AddMin(q query.Set, a float64) error { return b.add(query.Min, q, a) }

// add commits a fold by swapping in the synopsis With built.
func (b *MaxMin) add(kind query.Kind, q query.Set, a float64) error {
	t, err := b.With(kind, q, a)
	if err != nil {
		return err
	}
	*b = *t
	return nil
}

// normalizeAndCheck applies the shared-value split for value a (the only
// value a fresh Add can newly collide on) and re-verifies global
// consistency of element ranges and witness feasibility.
func (b *MaxMin) normalizeAndCheck(a float64) error {
	maxP, minP := b.max.eqPred(a), b.min.inner.eqPred(-a)
	if maxP != nil && minP != nil && !(len(maxP.Set) == 1 && maxP.Set.Equal(minP.Set)) {
		inter := maxP.Set.Intersect(minP.Set)
		if len(inter) != 1 {
			// Zero common elements would require two distinct elements
			// with the same value; two or more would force a duplicate
			// among the non-witnesses. Either way: inconsistent.
			return ErrInconsistent
		}
		j := inter[0]
		// Pin x_j = a: everything else in the max set is strictly below
		// a, everything else in the min set strictly above. The equality
		// predicates then shrink to the singleton {j} on both sides.
		b.max.ForceStrictBelow(maxP.Set.Minus(query.Set{j}), a)
		b.min.ForceStrictAbove(minP.Set.Minus(query.Set{j}), a)
	}
	return b.checkConsistent()
}

// checkConsistent verifies that every element's range is non-empty and
// every equality predicate retains a feasible witness. It walks the
// predicate maps in place: the answer is one boolean over all of them,
// so their order does not matter.
func (b *MaxMin) checkConsistent() error {
	n := b.N()
	for i := 0; i < n; i++ {
		if b.RangeOf(i).Empty() {
			return ErrInconsistent
		}
	}
	for _, p := range b.max.preds {
		if p.Eq() && !b.hasFeasibleWitness(p.Set, p.Value) {
			return ErrInconsistent
		}
	}
	for _, p := range b.min.inner.preds {
		if p.Eq() && !b.hasFeasibleWitness(p.Set, -p.Value) {
			return ErrInconsistent
		}
	}
	return nil
}

// hasFeasibleWitness reports whether some element of an equality
// predicate's set can actually take its value v (min orientation for
// the min side) given the combined bounds from both synopsis sides.
func (b *MaxMin) hasFeasibleWitness(set query.Set, v float64) bool {
	for _, i := range set {
		if b.RangeOf(i).Contains(v) {
			return true
		}
	}
	return false
}

// RangeOf returns the range element i is confined to, combining both
// synopsis sides with the ambient data range [alpha, beta].
func (b *MaxMin) RangeOf(i int) Range {
	r := Range{Lo: b.alpha, Hi: b.beta}
	if v, strict, ok := b.max.UpperBound(i); ok && (v < r.Hi || (v == r.Hi && strict)) {
		r.Hi, r.HiStrict = v, strict
	}
	if v, strict, ok := b.min.LowerBound(i); ok && (v > r.Lo || (v == r.Lo && strict)) {
		r.Lo, r.LoStrict = v, strict
	}
	return r
}

// Ranges fills dst with RangeOf(i) for every element i, reusing dst's
// storage, and returns it. It makes one pass over each side's predicates
// instead of two predicate lookups per element; every element lies in at
// most one predicate per side, so each bound is applied exactly as
// RangeOf applies it.
func (b *MaxMin) Ranges(dst []Range) []Range {
	n := b.N()
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = Range{Lo: b.alpha, Hi: b.beta}
	}
	for _, p := range b.max.preds {
		v, strict := p.Value, p.Op == OpLt
		for _, i := range p.Set {
			if r := &dst[i]; v < r.Hi || (v == r.Hi && strict) {
				r.Hi, r.HiStrict = v, strict
			}
		}
	}
	for _, p := range b.min.inner.preds {
		v, strict := -p.Value, p.Op == OpLt
		for _, i := range p.Set {
			if r := &dst[i]; v > r.Lo || (v == r.Lo && strict) {
				r.Lo, r.LoStrict = v, strict
			}
		}
	}
	return dst
}

// EqValues returns every value held by an equality predicate on either
// side (candidate generators must avoid them for interval
// representatives).
func (b *MaxMin) EqValues() map[float64]bool {
	out := b.max.EqValues()
	for v := range b.min.EqValues() {
		out[v] = true
	}
	return out
}

// MaxValueOf returns the value of the max-side predicate containing i,
// if any, without copying the predicate's set.
func (b *MaxMin) MaxValueOf(i int) (float64, bool) {
	v, _, ok := b.max.UpperBound(i)
	return v, ok
}

// MinValueOf returns the value of the min-side predicate containing i
// (min orientation), if any, without copying the predicate's set.
func (b *MaxMin) MinValueOf(i int) (float64, bool) {
	v, _, ok := b.min.LowerBound(i)
	return v, ok
}

// SingletonEqCount returns the total number of one-element equality
// predicates on both sides. A pinned element contributes two (one per
// side) after normalization, or one if only a single side pins it.
func (b *MaxMin) SingletonEqCount() int {
	return b.max.SingletonEqCount() + b.min.SingletonEqCount()
}

// WeakPredCount returns the total number of OpLe predicates on both
// sides. When positive, weak bounds can pin elements without producing a
// singleton equality predicate, so compromise detection must fall back to
// the full extreme-element analysis.
func (b *MaxMin) WeakPredCount() int {
	return b.max.WeakPredCount() + b.min.WeakPredCount()
}

// Update reacts to a modification of record i's sensitive value (see
// Max.Update): i's bounds are dropped and any equality predicate that
// might have had i as its witness demotes to a witness-free bound.
func (b *MaxMin) Update(i int) {
	b.max.Update(i)
	b.min.Update(i)
}

// CheckInvariants validates both sides plus the combined normal form: no
// max equality value may coincide with a min equality value except as a
// pinned singleton shared by both.
func (b *MaxMin) CheckInvariants() error {
	if err := b.max.CheckInvariants(); err != nil {
		return err
	}
	if err := b.min.CheckInvariants(); err != nil {
		return err
	}
	for _, p := range b.max.Preds() {
		if !p.Eq() {
			continue
		}
		if mp, ok := b.min.EqPredWithValue(p.Value); ok {
			if !(len(p.Set) == 1 && p.Set.Equal(mp.Set)) {
				return errNotNormalized(p.Value)
			}
		}
	}
	return nil
}

type errNotNormalized float64

func (e errNotNormalized) Error() string {
	return "synopsis: max/min equality predicates share value without pinned singleton"
}

// Unbounded returns ±Inf ambient bounds for the classical setting.
func Unbounded() (alpha, beta float64) {
	return math.Inf(-1), math.Inf(1)
}
