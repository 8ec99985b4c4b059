// Package sumfull implements the classical (full-disclosure) simulatable
// sum auditor of [Chin–Ozsoyoglu '81; Kenthapadi–Mishra–Nissim '05] whose
// utility Sections 5 and 6 of the paper analyze.
//
// Each answered sum query contributes its 0/1 query vector to a row space
// maintained in reduced row-echelon form. Some x_i is uniquely
// determined iff an elementary vector lies in that row space, which in
// RREF manifests as a singleton basis row. The auditor is simulatable
// because the decision depends only on the query vectors, never on any
// answer: it denies exactly when answering would put an elementary
// vector into the span.
//
// Updates (Sections 5–6): modifying record i retires its column and opens
// a fresh one for the new version. Old equations keep constraining the
// old version; a query is denied if answering it would uniquely determine
// any past or present value, i.e. any elementary vector over any version
// column.
package sumfull

import (
	"fmt"
	"slices"

	"queryaudit/internal/audit"
	"queryaudit/internal/field"
	"queryaudit/internal/linalg"
	"queryaudit/internal/query"
)

// Auditor is the simulatable sum auditor, generic over the scalar field
// used for the exact linear algebra.
type Auditor[E any, F field.Field[E]] struct {
	f   F
	n   int
	ech *linalg.Echelon[E, F]
	// col[i] is the live column of record i (its current version).
	col []int
	// answered counts committed answers (diagnostics only).
	answered int
	// pending is the residual of the last set Decide would answer, taken
	// at basis generation gen; Record of that set at that generation
	// commits it without reducing the set again.
	pending struct {
		set query.Set
		gen uint64
		r   []E
	}
}

// New returns a sum auditor over n records using the fast GF(2^61−1)
// field. This is the variant the experiments use.
func New(n int) *Auditor[field.Elem61, field.GF61] {
	return NewWithField[field.Elem61](field.GF61{}, n)
}

// NewExact returns a sum auditor computing over exact rationals. It is
// slower and used for cross-checking.
func NewExact(n int) *Auditor[field.RatElem, field.Rat] {
	return NewWithField[field.RatElem](field.Rat{}, n)
}

// NewWithField returns a sum auditor over an arbitrary field.
func NewWithField[E any, F field.Field[E]](f F, n int) *Auditor[E, F] {
	a := &Auditor[E, F]{f: f, n: n, ech: linalg.NewEchelon[E](f, n), col: make([]int, n)}
	for i := range a.col {
		a.col[i] = i
	}
	return a
}

// Name implements audit.Auditor.
func (a *Auditor[E, F]) Name() string { return "sum-full-disclosure" }

// N returns the number of records.
func (a *Auditor[E, F]) N() int { return a.n }

// Rank returns the dimension of the answered query span (diagnostics).
func (a *Auditor[E, F]) Rank() int { return a.ech.Rank() }

// vector maps a query set onto the live version columns.
func (a *Auditor[E, F]) vector(s query.Set) ([]E, error) {
	support := make([]int, len(s))
	for k, i := range s {
		if i < 0 || i >= a.n {
			return nil, fmt.Errorf("sumfull: index %d out of range 0..%d", i, a.n-1)
		}
		support[k] = a.col[i]
	}
	return linalg.VectorFromSupport[E](a.f, a.ech.NumCols(), support), nil
}

// Decide implements audit.Auditor: deny iff answering would reveal some
// past or present value. The answer itself is never consulted.
func (a *Auditor[E, F]) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Sum {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("sumfull: empty query set")
	}
	v, err := a.vector(q.Set)
	if err != nil {
		return audit.Deny, err
	}
	r := a.ech.Reduce(v)
	if a.ech.WouldCreateElementaryResidual(r) {
		return audit.Deny, nil
	}
	a.pending.set, a.pending.gen, a.pending.r = q.Set, a.ech.Gen(), r
	return audit.Answer, nil
}

// Record implements audit.Auditor. The answer value is ignored: under
// classical compromise only the query vectors matter. Recording the set
// the last Decide answered, with the basis unchanged since, commits the
// residual that Decide reduced.
func (a *Auditor[E, F]) Record(q query.Query, _ float64) {
	p := &a.pending
	if p.r != nil && p.gen == a.ech.Gen() && slices.Equal(p.set, q.Set) {
		a.ech.AddResidual(p.r)
	} else {
		v, err := a.vector(q.Set)
		if err != nil {
			panic(fmt.Sprintf("sumfull: Record after successful Decide failed: %v", err))
		}
		a.ech.Add(v)
	}
	p.set, p.r = nil, nil
	a.answered++
}

// NoteUpdate implements audit.Updatable: record idx was modified,
// so its future queries reference a fresh column while old equations keep
// constraining the retired version.
func (a *Auditor[E, F]) NoteUpdate(idx int) {
	if idx < 0 || idx >= a.n {
		return
	}
	a.ech.AppendColumns(1)
	a.col[idx] = a.ech.NumCols() - 1
}

// Compromised reports whether some version of some record is already
// uniquely determined (it never is after a run of correct decisions;
// exposed for tests and attack demos).
func (a *Auditor[E, F]) Compromised() bool {
	_, ok := a.ech.ElementaryInSpan()
	return ok
}
