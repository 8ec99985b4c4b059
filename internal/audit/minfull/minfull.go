// Package minfull implements the simulatable full-disclosure min
// auditor — the exact mirror of package maxfull (min(S) = −max(−S)),
// provided standalone because the paper's Section 2.1 inventory treats
// sum, max and min auditing as separate known problems. Deployments
// auditing *bags* of max and min together must use maxminfull instead:
// the two aggregates compose information that neither single-kind
// auditor can see.
package minfull

import (
	"fmt"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/query"
)

// Auditor is the simulatable min auditor.
type Auditor struct {
	inner *maxfull.Auditor
}

// New returns a min auditor over n records (duplicate-free data).
func New(n int) *Auditor {
	return &Auditor{inner: maxfull.New(n)}
}

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "min-full-disclosure" }

// N returns the number of records.
func (a *Auditor) N() int { return a.inner.N() }

// Decide implements audit.Auditor by mirroring onto the max auditor.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Min {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	return a.inner.Decide(query.Query{Set: q.Set, Kind: query.Max})
}

// Record implements audit.Auditor.
func (a *Auditor) Record(q query.Query, answer float64) {
	a.inner.Record(query.Query{Set: q.Set, Kind: query.Max}, -answer)
}

// NoteUpdate implements audit.Updatable.
func (a *Auditor) NoteUpdate(idx int) { a.inner.NoteUpdate(idx) }

// Compromised reports whether the committed trail pins a value.
func (a *Auditor) Compromised() bool { return a.inner.Compromised() }

// Knowledge implements audit.KnowledgeReporter, mirroring the inner max
// auditor's bounds back into min orientation.
func (a *Auditor) Knowledge() []audit.ElementKnowledge {
	inner := a.inner.Knowledge()
	out := make([]audit.ElementKnowledge, len(inner))
	for i, k := range inner {
		out[i] = audit.ElementKnowledge{
			Index:       k.Index,
			Lower:       -k.Upper,
			Upper:       -k.Lower,
			LowerStrict: k.UpperStrict,
			UpperStrict: k.LowerStrict,
			Pinned:      k.Pinned,
		}
	}
	return out
}
