package synopsis

import (
	"fmt"

	"queryaudit/internal/query"
)

// Min is the min-query synopsis B_min. It is the exact mirror image of
// Max — min(S) = −max(−S) — and is implemented by delegating to an inner
// Max over negated values, so the (subtle) folding logic exists once.
type Min struct {
	inner *Max
}

// NewMin returns an empty min synopsis over n elements.
func NewMin(n int) *Min { return &Min{inner: NewMax(n)} }

// N returns the number of dataset elements the synopsis covers.
func (m *Min) N() int { return m.inner.N() }

// Clone returns a deep copy.
func (m *Min) Clone() *Min { return &Min{inner: m.inner.Clone()} }

// Add folds the answered query [min(Q) = a] into the synopsis.
func (m *Min) Add(q query.Set, a float64) error { return m.inner.Add(q, -a) }

// Preds returns the predicates in min orientation: OpEq means
// [min(Set) = Value], OpLt means [min(Set) > Value], OpLe means
// [min(Set) ≥ Value].
func (m *Min) Preds() []Pred {
	ps := m.inner.Preds()
	for i := range ps {
		ps[i].Value = -ps[i].Value
	}
	return ps
}

// LowerBound returns the lower bound on element i: x_i ≥ v
// (strict=false) or x_i > v (strict=true). ok is false when i is
// unconstrained.
func (m *Min) LowerBound(i int) (v float64, strict, ok bool) {
	nv, st, ok := m.inner.UpperBound(i)
	return -nv, st, ok
}

// EqValues returns the values held by min equality predicates (min
// orientation).
func (m *Min) EqValues() map[float64]bool {
	out := make(map[float64]bool)
	for v := range m.inner.EqValues() {
		out[-v] = true
	}
	return out
}

// EqPredWithValue returns the equality predicate pinning min value a.
func (m *Min) EqPredWithValue(a float64) (Pred, bool) {
	p, ok := m.inner.EqPredWithValue(-a)
	if ok {
		p.Value = -p.Value
	}
	return p, ok
}

// ForceStrictAbove records x_i > a for every element of set.
func (m *Min) ForceStrictAbove(set query.Set, a float64) { m.inner.ForceStrictBelow(set, -a) }

// SingletonEqCount returns the number of one-element equality predicates
// (each pins its element exactly).
func (m *Min) SingletonEqCount() int { return m.inner.SingletonEqCount() }

// WeakPredCount returns the number of OpLe predicates (update residue).
func (m *Min) WeakPredCount() int { return m.inner.WeakPredCount() }

// Update reacts to a modification of record i (see Max.Update).
func (m *Min) Update(i int) { m.inner.Update(i) }

// CheckInvariants validates structural invariants.
func (m *Min) CheckInvariants() error { return m.inner.CheckInvariants() }

func (m *Min) String() string {
	preds := m.Preds()
	s := ""
	for i, p := range preds {
		if i > 0 {
			s += " "
		}
		op := ">"
		if p.Eq() {
			op = "="
		}
		s += fmt.Sprintf("[min%s %s %g]", p.Set, op, p.Value)
	}
	return s
}
