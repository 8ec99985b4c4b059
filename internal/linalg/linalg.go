// Package linalg implements the incremental linear algebra behind the
// classical sum auditor of Sections 5 and 6: a row space of 0/1 query
// vectors maintained in reduced row-echelon form (RREF), with span
// membership tests and detection of elementary (axis-parallel) vectors.
//
// The central fact the auditor relies on (and that this package's tests
// verify) is: for a basis in RREF, an elementary vector e_i lies in the
// row space if and only if some basis row *is* e_i up to scaling — that
// is, some row has exactly one nonzero entry. Compromise detection is
// therefore a scan for singleton rows.
//
// The package is generic over internal/field so that the same code runs
// on the fast GF(2^61−1) field and on exact rationals.
package linalg

import (
	"fmt"

	"queryaudit/internal/field"
)

// Echelon maintains a growing row space in reduced row-echelon form.
// Rows are added one at a time; dependent rows are discarded. Columns may
// be appended to model database updates (each modification of a record
// opens a fresh column for its new version).
type Echelon[E any, F field.Field[E]] struct {
	f     F
	ncols int
	// rows[i] is a dense row of length ncols. Invariants:
	//   - rows[i][pivot[i]] == 1 and it is the first nonzero of rows[i];
	//   - every other row has a zero in column pivot[i];
	//   - pivot columns are strictly increasing in row order.
	rows  [][]E
	pivot []int
	// rowOfPivot maps a pivot column to its row index, or -1.
	rowOfPivot []int
	// gen advances on every change to the basis (Gen).
	gen uint64
}

// NewEchelon returns an empty row space over ncols columns.
func NewEchelon[E any, F field.Field[E]](f F, ncols int) *Echelon[E, F] {
	e := &Echelon[E, F]{f: f, ncols: ncols}
	e.rowOfPivot = make([]int, ncols)
	for i := range e.rowOfPivot {
		e.rowOfPivot[i] = -1
	}
	return e
}

// Rank returns the current dimension of the row space.
func (e *Echelon[E, F]) Rank() int { return len(e.rows) }

// NumCols returns the current number of columns.
func (e *Echelon[E, F]) NumCols() int { return e.ncols }

// Gen returns the basis's generation, which advances whenever a row is
// added or columns are appended. A residual Reduce returned stays the
// residual of its vector while Gen is unchanged.
func (e *Echelon[E, F]) Gen() uint64 { return e.gen }

// AppendColumns widens the matrix by k zero columns (used when a database
// update introduces new value versions).
func (e *Echelon[E, F]) AppendColumns(k int) {
	if k <= 0 {
		return
	}
	e.gen++
	z := e.f.Zero()
	for i, row := range e.rows {
		wide := make([]E, e.ncols+k)
		copy(wide, row)
		for c := e.ncols; c < e.ncols+k; c++ {
			wide[c] = z
		}
		e.rows[i] = wide
	}
	for c := 0; c < k; c++ {
		e.rowOfPivot = append(e.rowOfPivot, -1)
	}
	e.ncols += k
}

// VectorFromSupport builds the 0/1 vector of length ncols with ones at
// the given (not necessarily sorted) column indices.
func VectorFromSupport[E any, F field.Field[E]](f F, ncols int, support []int) []E {
	v := make([]E, ncols)
	z, one := f.Zero(), f.One()
	for i := range v {
		v[i] = z
	}
	for _, c := range support {
		if c < 0 || c >= ncols {
			panic(fmt.Sprintf("linalg: support index %d out of range 0..%d", c, ncols-1))
		}
		v[c] = one
	}
	return v
}

// Reduce returns the residual of v after elimination against the current
// basis. The residual is zero everywhere iff v is in the row space. The
// input is not modified.
func (e *Echelon[E, F]) Reduce(v []E) []E {
	if len(v) != e.ncols {
		panic(fmt.Sprintf("linalg: vector length %d, want %d", len(v), e.ncols))
	}
	r := make([]E, e.ncols)
	copy(r, v)
	for i, row := range e.rows {
		p := e.pivot[i]
		if e.f.IsZero(r[p]) {
			continue
		}
		c := r[p] // row's pivot entry is 1, so the multiplier is r[p] itself
		for j := p; j < e.ncols; j++ {
			if !e.f.IsZero(row[j]) {
				r[j] = e.f.Sub(r[j], e.f.Mul(c, row[j]))
			}
		}
	}
	return r
}

// IsZeroVector reports whether every entry of r is zero.
func (e *Echelon[E, F]) IsZeroVector(r []E) bool {
	for _, x := range r {
		if !e.f.IsZero(x) {
			return false
		}
	}
	return true
}

// InSpan reports whether v lies in the current row space.
func (e *Echelon[E, F]) InSpan(v []E) bool {
	return e.IsZeroVector(e.Reduce(v))
}

// normalize scales r so its leading nonzero (at column p) becomes 1.
func (e *Echelon[E, F]) normalize(r []E, p int) {
	inv := e.f.Inv(r[p])
	for j := p; j < e.ncols; j++ {
		if !e.f.IsZero(r[j]) {
			r[j] = e.f.Mul(r[j], inv)
		}
	}
}

// leading returns the index of the first nonzero entry of r, or -1.
func (e *Echelon[E, F]) leading(r []E) int {
	for j, x := range r {
		if !e.f.IsZero(x) {
			return j
		}
	}
	return -1
}

// Add inserts v into the row space, returning true if the rank grew
// (false means v was already in the span). RREF is restored before
// returning.
func (e *Echelon[E, F]) Add(v []E) bool {
	return e.AddResidual(e.Reduce(v))
}

// AddResidual is Add for the residual r of a vector, as Reduce returned
// it at the current Gen. The basis takes r over.
func (e *Echelon[E, F]) AddResidual(r []E) bool {
	p := e.leading(r)
	if p < 0 {
		return false
	}
	e.addReduced(r, p)
	return true
}

// addReduced commits an already-reduced residual r with leading column p.
func (e *Echelon[E, F]) addReduced(r []E, p int) {
	e.gen++
	e.normalize(r, p)
	// Eliminate column p from all existing rows (zeros above the pivot).
	for _, row := range e.rows {
		if e.f.IsZero(row[p]) {
			continue
		}
		c := row[p]
		for j := p; j < e.ncols; j++ {
			if !e.f.IsZero(r[j]) {
				row[j] = e.f.Sub(row[j], e.f.Mul(c, r[j]))
			}
		}
	}
	// Insert keeping pivot columns sorted.
	at := len(e.rows)
	for i, pc := range e.pivot {
		if pc > p {
			at = i
			break
		}
	}
	e.rows = append(e.rows, nil)
	copy(e.rows[at+1:], e.rows[at:])
	e.rows[at] = r
	e.pivot = append(e.pivot, 0)
	copy(e.pivot[at+1:], e.pivot[at:])
	e.pivot[at] = p
	for c := range e.rowOfPivot {
		if e.rowOfPivot[c] >= at && c != p {
			e.rowOfPivot[c]++
		}
	}
	e.rowOfPivot[p] = at
}

// supportSize returns the number of nonzero entries of row.
func (e *Echelon[E, F]) supportSize(row []E) int {
	n := 0
	for _, x := range row {
		if !e.f.IsZero(x) {
			n++
		}
	}
	return n
}

// ElementaryInSpan returns the column index of some elementary vector in
// the row space, or (-1, false) if none exists. Requires RREF, where an
// elementary vector is in the span iff some basis row is a singleton.
func (e *Echelon[E, F]) ElementaryInSpan() (int, bool) {
	for i, row := range e.rows {
		if e.supportSize(row) == 1 {
			return e.pivot[i], true
		}
	}
	return -1, false
}

// ElementaryColumns returns the set of columns whose elementary vectors
// lie in the row space.
func (e *Echelon[E, F]) ElementaryColumns() []int {
	var cols []int
	for i, row := range e.rows {
		if e.supportSize(row) == 1 {
			cols = append(cols, e.pivot[i])
		}
	}
	return cols
}

// WouldCreateElementary reports whether adding v to the row space would
// put some elementary vector into the span that is not already there.
// It performs the hypothetical elimination without mutating the basis.
// If v is already in the span it reports false: answering a dependent
// query adds no information.
func (e *Echelon[E, F]) WouldCreateElementary(v []E) bool {
	return e.WouldCreateElementaryResidual(e.Reduce(v))
}

// WouldCreateElementaryResidual is WouldCreateElementary for the residual
// r of a vector, as Reduce returned it at the current Gen. r is only
// read.
func (e *Echelon[E, F]) WouldCreateElementaryResidual(r []E) bool {
	p := e.leading(r)
	if p < 0 {
		return false
	}
	// Hypothetical new row: r normalized.
	inv := e.f.Inv(r[p])
	// Singleton new row?
	if e.supportSize(r) == 1 {
		return true
	}
	// Existing rows with a nonzero in column p lose that entry; check
	// whether any becomes a singleton.
	for _, row := range e.rows {
		if e.f.IsZero(row[p]) {
			continue
		}
		c := e.f.Mul(row[p], inv)
		nz := 0
		for j := 0; j < e.ncols; j++ {
			var val E
			if j >= p {
				val = e.f.Sub(row[j], e.f.Mul(c, r[j]))
			} else {
				val = row[j]
			}
			if !e.f.IsZero(val) {
				nz++
				if nz > 1 {
					break
				}
			}
		}
		if nz == 1 {
			return true
		}
	}
	return false
}

// Rows returns a deep copy of the current basis rows (for inspection and
// tests; the auditor itself never needs it).
func (e *Echelon[E, F]) Rows() [][]E {
	out := make([][]E, len(e.rows))
	for i, row := range e.rows {
		out[i] = append([]E(nil), row...)
	}
	return out
}

// CheckInvariants verifies the RREF invariants, returning a descriptive
// error when one is violated. It is used by property tests.
func (e *Echelon[E, F]) CheckInvariants() error {
	one := e.f.One()
	for i, row := range e.rows {
		p := e.pivot[i]
		if l := e.leading(row); l != p {
			return fmt.Errorf("row %d: leading column %d, recorded pivot %d", i, l, p)
		}
		if !e.f.Equal(row[p], one) {
			return fmt.Errorf("row %d: pivot entry not 1", i)
		}
		if i > 0 && e.pivot[i-1] >= p {
			return fmt.Errorf("pivots not strictly increasing at row %d", i)
		}
		for k, other := range e.rows {
			if k != i && !e.f.IsZero(other[p]) {
				return fmt.Errorf("row %d has nonzero in pivot column %d of row %d", k, p, i)
			}
		}
	}
	for c, ri := range e.rowOfPivot {
		if ri == -1 {
			continue
		}
		if ri < 0 || ri >= len(e.rows) || e.pivot[ri] != c {
			return fmt.Errorf("rowOfPivot[%d]=%d inconsistent", c, ri)
		}
	}
	return nil
}
