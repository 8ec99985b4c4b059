// Package maxdup implements the simulatable max auditor of
// [Kenthapadi–Mishra–Nissim '05] in its original *duplicates-allowed*
// setting — the algorithm the paper's Figure 3 experiment actually ran.
// (The paper's own Section 4 auditor assumes no duplicates and is
// strictly more conservative; this package provides the comparator so
// both denial curves can be regenerated side by side.)
//
// With duplicates allowed, the knowledge from a history of answered max
// queries is captured by per-element upper bounds μ_j = min{a_k : j∈Q_k}
// and, per query, its extreme set E_k = {j ∈ Q_k : μ_j = a_k}. The
// history is consistent iff every E_k is nonempty (set x_j = μ_j), and
// some value is uniquely determined iff some E_k is a singleton. No
// cross-query inference beyond the bounds exists — precisely because
// duplicates are allowed.
//
// Simulatable decision, closed form. For a new query Q with hypothetical
// answer a, only two step functions of a matter:
//
//   - the new query's own extreme count |{j ∈ Q : μ_j ≥ a}| — it is 1
//     exactly when a lies in (m2, m1], where m1 ≥ m2 are the two largest
//     bounds in Q;
//   - each old query k that shares current extreme elements with Q loses
//     them all iff a < a_k (their bounds drop below a_k), leaving
//     c_k − o_k elements, where o_k = |E_k ∩ Q|.
//
// Writing L0 = max{a_k : c_k − o_k = 0} (answers below which the history
// becomes inconsistent) and L1 = max{a_k : c_k − o_k = 1}, the query is
// denied iff some consistent a compromises:
//
//	deny ⟺ [L0 < L1]  ∨  [max(L0, m2) < m1].
package maxdup

import (
	"fmt"
	"math"

	"queryaudit/internal/audit"
	"queryaudit/internal/query"
)

type answered struct {
	set query.Set
	ans float64
	// extremeCount = |E_k| under current bounds.
	extremeCount int
}

// Auditor is the duplicates-allowed simulatable max auditor.
type Auditor struct {
	n       int
	queries []answered
	// byElem[j] lists indices into queries containing element j.
	byElem [][]int
	// mu[j] is the current upper bound of element j (+Inf when free).
	mu []float64
}

// New returns an auditor over n records (duplicates permitted).
func New(n int) *Auditor {
	a := &Auditor{n: n, byElem: make([][]int, n), mu: make([]float64, n)}
	for i := range a.mu {
		a.mu[i] = math.Inf(1)
	}
	return a
}

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "max-full-disclosure-duplicates" }

// N returns the number of records.
func (a *Auditor) N() int { return a.n }

// Decide implements audit.Auditor using the closed form above.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Max {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("maxdup: empty query set")
	}
	for _, j := range q.Set {
		if j < 0 || j >= a.n {
			return audit.Deny, fmt.Errorf("maxdup: index %d out of range", j)
		}
	}
	// m1 ≥ m2: the two largest bounds within Q.
	m1, m2 := math.Inf(-1), math.Inf(-1)
	for _, j := range q.Set {
		switch {
		case a.mu[j] > m1:
			m1, m2 = a.mu[j], m1
		case a.mu[j] > m2:
			m2 = a.mu[j]
		}
	}
	// o_k = |E_k ∩ Q| per old query sharing extreme elements with Q.
	overlap := make(map[int]int)
	for _, j := range q.Set {
		for _, k := range a.byElem[j] {
			if a.mu[j] == a.queries[k].ans { //auditlint:allow floateq answers are copied dataset values; equality-with-mu is exact set membership, not arithmetic
				overlap[k]++
			}
		}
	}
	l0, l1 := math.Inf(-1), math.Inf(-1)
	for k, o := range overlap {
		switch a.queries[k].extremeCount - o {
		case 0:
			if v := a.queries[k].ans; v > l0 {
				l0 = v
			}
		case 1:
			if v := a.queries[k].ans; v > l1 {
				l1 = v
			}
		}
	}
	// Consistent answers are a ≥ L0 (and a ≤ m1, vacuous below).
	// Compromise region 1: a < L1 strips some old query to one witness.
	if l0 < l1 {
		return audit.Deny, nil
	}
	// Compromise region 2: a ∈ (max(L0, m2), m1] leaves the new query
	// itself a single witness.
	if math.Max(l0, m2) < m1 {
		return audit.Deny, nil
	}
	return audit.Answer, nil
}

// Record implements audit.Auditor: lower bounds, shrink extreme sets,
// append the new query.
func (a *Auditor) Record(q query.Query, ans float64) {
	for _, j := range q.Set {
		if a.mu[j] > ans {
			// j leaves the extreme set of every query it was extreme in.
			for _, k := range a.byElem[j] {
				if a.queries[k].ans == a.mu[j] { //auditlint:allow floateq answers are copied dataset values; equality-with-mu is exact set membership, not arithmetic
					a.queries[k].extremeCount--
				}
			}
			a.mu[j] = ans
		}
	}
	idx := len(a.queries)
	ext := 0
	for _, j := range q.Set {
		if a.mu[j] == ans { //auditlint:allow floateq answers are copied dataset values; equality-with-mu is exact set membership, not arithmetic
			ext++
		}
		a.byElem[j] = append(a.byElem[j], idx)
	}
	a.queries = append(a.queries, answered{set: q.Set.Clone(), ans: ans, extremeCount: ext})
}

// Compromised reports whether the committed history pins any value.
func (a *Auditor) Compromised() bool {
	for _, k := range a.queries {
		if k.extremeCount <= 1 {
			return true
		}
	}
	return false
}

// UpperBound returns element j's current bound (math.Inf(1) when free).
func (a *Auditor) UpperBound(j int) float64 { return a.mu[j] }

// CheckInvariants recomputes extreme counts from scratch and compares
// (property tests).
func (a *Auditor) CheckInvariants() error {
	for k, qk := range a.queries {
		ext := 0
		for _, j := range qk.set {
			if a.mu[j] == qk.ans { //auditlint:allow floateq answers are copied dataset values; equality-with-mu is exact set membership, not arithmetic
				ext++
			}
			if a.mu[j] > qk.ans {
				return fmt.Errorf("maxdup: μ[%d]=%g above answer %g of query %d", j, a.mu[j], qk.ans, k)
			}
		}
		if ext != qk.extremeCount {
			return fmt.Errorf("maxdup: query %d extremeCount=%d, actual %d", k, qk.extremeCount, ext)
		}
	}
	return nil
}

// Knowledge implements audit.KnowledgeReporter: per-element upper bounds
// μ_j, with Pinned set when the element is some query's lone witness.
func (a *Auditor) Knowledge() []audit.ElementKnowledge {
	out := make([]audit.ElementKnowledge, a.n)
	lone := make(map[int]bool)
	for _, q := range a.queries {
		if q.extremeCount == 1 {
			for _, j := range q.set {
				if a.mu[j] == q.ans { //auditlint:allow floateq answers are copied dataset values; equality-with-mu is exact set membership, not arithmetic
					lone[j] = true
				}
			}
		}
	}
	for j := 0; j < a.n; j++ {
		out[j] = audit.ElementKnowledge{
			Index:  j,
			Lower:  math.Inf(-1),
			Upper:  a.mu[j],
			Pinned: lone[j],
		}
		if lone[j] {
			out[j].Lower = a.mu[j]
		}
	}
	return out
}
