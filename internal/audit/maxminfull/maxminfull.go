// Package maxminfull implements the paper's Section 4 contribution: the
// first online simulatable auditor for *bags* of max and min queries
// under full disclosure, assuming a duplicate-free dataset.
//
// The decision procedure is Algorithm 3: for a new query (max or min)
// over set Q, only 2l+1 candidate answers need checking (Theorem 5) —
// the l answers of history predicates intersecting Q plus one
// representative per open interval they delimit (representatives chosen
// to dodge every equality value in the synopsis; see
// audit.CandidateAnswers for why a collision would be a privacy hole).
// Each candidate is folded into the combined synopsis B = (B_max, B_min)
// in place and rolled back after inspection; inconsistent candidates are
// skipped (they cannot be the true answer), and if any consistent
// candidate would uniquely determine some element — per the Theorem 3
// characterization — the query is denied. The synopsis keeps the audit
// trail at O(n) in place of the raw query log (Section 4, "no
// duplicates" discussion).
package maxminfull

import (
	"fmt"

	"queryaudit/internal/audit"
	"queryaudit/internal/extreme"
	"queryaudit/internal/query"
	"queryaudit/internal/synopsis"
)

// Auditor is the simulatable max-and-min auditor.
type Auditor struct {
	n   int
	syn *synopsis.MaxMin
}

// New returns an auditor over n records with unbounded data range. The
// dataset must be duplicate-free.
func New(n int) *Auditor {
	alpha, beta := synopsis.Unbounded()
	return &Auditor{n: n, syn: synopsis.NewMaxMin(n, alpha, beta)}
}

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "maxmin-full-disclosure" }

// N returns the number of records.
func (a *Auditor) N() int { return a.n }

// Synopsis exposes a copy of the current audit trail (diagnostics).
func (a *Auditor) Synopsis() *synopsis.MaxMin { return a.syn.Clone() }

// Candidates returns the finite answer set of Algorithm 3 for query set
// q: values of predicates (either side) intersecting q plus one
// representative per open interval they delimit, with representatives
// avoiding every equality value in the synopsis (audit.CandidateAnswers
// explains why a collision would be a privacy hole).
func (a *Auditor) Candidates(q query.Set) []float64 {
	// CandidateAnswers sorts and dedups, so duplicates are fine here —
	// and collecting into a slice (rather than a dedup map iterated in
	// random order) keeps the candidate stream deterministic.
	values := make([]float64, 0, 2*len(q))
	for _, i := range q {
		if v, ok := a.syn.MaxValueOf(i); ok {
			values = append(values, v)
		}
		if v, ok := a.syn.MinValueOf(i); ok {
			values = append(values, v)
		}
	}
	return audit.CandidateAnswers(values, a.syn.EqValues())
}

// compromised reports whether the trial synopsis uniquely determines any
// element. Without weak (post-update) predicates a pinned element always
// surfaces as a singleton equality predicate after normalization; with
// them, a weak lower bound meeting an upper bound can pin silently, so
// the full extreme-element analysis takes over.
func compromised(b *synopsis.MaxMin) bool {
	if b.SingletonEqCount() > 0 {
		return true
	}
	if b.WeakPredCount() == 0 {
		return false
	}
	res := extreme.Analyze(b.N(), extreme.FromSynopsis(b))
	return res.Consistent && res.Compromised
}

// Decide implements audit.Auditor for Max and Min queries.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Max && q.Kind != query.Min {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("maxminfull: empty query set")
	}
	anyConsistent := false
	for _, cand := range a.Candidates(q.Set) {
		if a.syn.Fold(q.Kind, q.Set, cand) != nil {
			continue
		}
		anyConsistent = true
		c := compromised(a.syn)
		a.syn.Rollback()
		if c {
			return audit.Deny, nil
		}
	}
	if !anyConsistent {
		return audit.Deny, nil // defensive; the true answer is consistent
	}
	return audit.Answer, nil
}

// Record implements audit.Auditor.
func (a *Auditor) Record(q query.Query, answer float64) {
	var err error
	switch q.Kind {
	case query.Max:
		err = a.syn.AddMax(q.Set, answer)
	case query.Min:
		err = a.syn.AddMin(q.Set, answer)
	default:
		err = fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if err != nil {
		panic(fmt.Sprintf("maxminfull: recording true answer failed: %v", err))
	}
}

// NoteUpdate implements audit.Updatable.
func (a *Auditor) NoteUpdate(idx int) {
	if idx < 0 || idx >= a.n {
		return
	}
	a.syn.Update(idx)
}

// Compromised reports whether the committed trail already pins a value.
func (a *Auditor) Compromised() bool { return compromised(a.syn) }

// Knowledge implements audit.KnowledgeReporter using the combined
// synopsis ranges.
func (a *Auditor) Knowledge() []audit.ElementKnowledge {
	out := make([]audit.ElementKnowledge, a.n)
	for i := 0; i < a.n; i++ {
		r := a.syn.RangeOf(i)
		out[i] = audit.ElementKnowledge{
			Index:       i,
			Lower:       r.Lo,
			Upper:       r.Hi,
			LowerStrict: r.LoStrict,
			UpperStrict: r.HiStrict,
			Pinned:      r.Pinned(),
		}
	}
	return out
}
