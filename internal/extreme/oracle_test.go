package extreme

// Brute-force oracle used to validate the extreme-element analysis on
// small instances. Only the relative order of elements against the
// distinct answer values matters for max/min constraints, so every
// dataset is equivalent to a "slot assignment": each element either
// equals one of the answer values exactly, or lies strictly inside one of
// the open intervals they delimit. Exact slots are exclusive (the data is
// duplicate-free); interval slots can host arbitrarily many elements at
// distinct reals.

import "sort"

// slot encoding: an even slot s = 2j is open interval number j
// (j = 0..m); an odd slot s = 2k+1 is exactly the k-th smallest answer
// value.
type oracle struct {
	n      int
	cons   []Constraint
	values []float64 // sorted distinct answer values
}

func newOracle(n int, cons []Constraint) *oracle {
	vset := map[float64]bool{}
	for _, c := range cons {
		vset[c.Value] = true
	}
	values := make([]float64, 0, len(vset))
	for v := range vset {
		values = append(values, v)
	}
	sort.Float64s(values)
	return &oracle{n: n, cons: cons, values: values}
}

func (o *oracle) numSlots() int { return 2*len(o.values) + 1 }

// slotBelowEq reports whether every real in slot s is ≤ v (strict: < v).
func (o *oracle) slotBelow(s int, v float64, strict bool) bool {
	if s%2 == 1 {
		sv := o.values[s/2]
		if strict {
			return sv < v
		}
		return sv <= v
	}
	// Interval j = s/2 spans (values[j-1], values[j]); j=0 is (-inf, v_0),
	// j=m is (v_{m-1}, +inf). All members are < values[j] when j < m.
	j := s / 2
	if j == len(o.values) {
		return false // unbounded above
	}
	return o.values[j] <= v
}

// slotAbove reports whether every real in slot s is ≥ v (strict: > v).
func (o *oracle) slotAbove(s int, v float64, strict bool) bool {
	if s%2 == 1 {
		sv := o.values[s/2]
		if strict {
			return sv > v
		}
		return sv >= v
	}
	j := s / 2
	if j == 0 {
		return false // unbounded below
	}
	return o.values[j-1] >= v
}

func (o *oracle) exactly(s int, v float64) bool {
	return s%2 == 1 && o.values[s/2] == v
}

// satisfies checks one full assignment against all constraints.
func (o *oracle) satisfies(slots []int) bool {
	// Exact slots exclusive.
	seen := map[int]bool{}
	for _, s := range slots {
		if s%2 == 1 {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
	}
	for _, c := range o.cons {
		hit := false
		for _, i := range c.Set {
			s := slots[i]
			strict := c.Rel == RelBoundStrict
			if c.IsMax {
				if !o.slotBelow(s, c.Value, strict) {
					return false
				}
			} else {
				if !o.slotAbove(s, c.Value, strict) {
					return false
				}
			}
			if c.Rel == RelEq && o.exactly(s, c.Value) {
				hit = true
			}
		}
		if c.Rel == RelEq && !hit {
			return false
		}
	}
	return true
}

// solve enumerates all assignments. It returns whether any satisfies the
// constraints and, for each element, the set of slots it takes across
// satisfying assignments.
func (o *oracle) solve() (consistent bool, slotSets []map[int]bool) {
	slotSets = make([]map[int]bool, o.n)
	for i := range slotSets {
		slotSets[i] = map[int]bool{}
	}
	slots := make([]int, o.n)
	var rec func(i int)
	found := false
	rec = func(i int) {
		if i == o.n {
			if o.satisfies(slots) {
				found = true
				for j, s := range slots {
					slotSets[j][s] = true
				}
			}
			return
		}
		for s := 0; s < o.numSlots(); s++ {
			slots[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return found, slotSets
}

// determined returns the elements whose value is the same exact answer
// value in every satisfying assignment — the classical-compromise
// notion of "uniquely determined".
func (o *oracle) determined(slotSets []map[int]bool) map[int]float64 {
	out := map[int]float64{}
	for i, set := range slotSets {
		if len(set) != 1 {
			continue
		}
		for s := range set {
			if s%2 == 1 {
				out[i] = o.values[s/2]
			}
		}
	}
	return out
}
