package synopsis

import (
	"slices"
	"sync"

	"queryaudit/internal/query"
)

// trail is the undo state of one open fold on a Max: the element index
// as it stood when the fold began, a log of the predicate-level changes
// made since, and the counters to restore. Element moves are not logged
// one by one; a single copy of elem restores them all. Trails come from
// trailPool when a fold opens and go back when it closes, so a synopsis
// holds none between folds.
type trail struct {
	elem                         []int
	log                          []change
	nextID, singletonEq, leCount int
	// saved holds the old contents of the sets filtered in place, back to
	// back; a setFiltered change views its run.
	saved []int
	// eqs is scratch of MaxMin's touched-only consistency check.
	eqs []int
}

// change is one predicate-level change of an open fold. A fold
// registers an equality value exactly when it inserts an equality
// predicate and forgets one exactly when it deletes one, so undoing the
// insert or delete undoes the eqVal change too. Only Update changes a
// predicate's Op, and Update never runs inside a fold.
type change struct {
	kind changeKind
	p    *Pred
	// from, to delimit the old contents of a filtered set in trail.saved.
	from, to int
}

type changeKind uint8

const (
	predAdded   changeKind = iota // p was inserted into preds
	predDeleted                   // p was removed from preds
	setFiltered                   // p.Set was filtered in place
)

var trailPool = sync.Pool{New: func() any { return new(trail) }}

// begin opens a fold on m: it takes a trail from the pool and saves the
// element index and the counters.
func (m *Max) begin() {
	if m.trail != nil {
		panic("synopsis: fold already open")
	}
	t := trailPool.Get().(*trail)
	t.elem = append(t.elem[:0], m.elem...)
	t.nextID, t.singletonEq, t.leCount = m.nextID, m.singletonEq, m.leCount
	m.trail = t
}

// note logs c if a fold is open.
func (m *Max) note(c change) {
	if m.trail != nil {
		m.trail.log = append(m.trail.log, c)
	}
}

// noteFilter saves p's set ahead of an in-place filter.
func (m *Max) noteFilter(p *Pred) {
	if t := m.trail; t != nil {
		from := len(t.saved)
		t.saved = append(t.saved, p.Set...)
		t.log = append(t.log, change{kind: setFiltered, p: p, from: from, to: len(t.saved)})
	}
}

// Fold folds the answered query [max(Q) = a] into m in place and leaves
// the fold open: the caller inspects m, then Commit keeps the fold or
// Rollback undoes it. On inconsistency m is unchanged, no fold is left
// open and ErrInconsistent is returned.
func (m *Max) Fold(q query.Set, a float64) error {
	m.begin()
	if err := m.Add(q, a); err != nil {
		m.Rollback()
		return err
	}
	return nil
}

// Commit keeps the open fold.
func (m *Max) Commit() {
	m.open()
	m.end()
}

// Rollback undoes the open fold: it replays the change log backwards,
// then restores the element index and the counters. Predicate IDs come
// back with nextID, so a later fold assigns the IDs this one did.
func (m *Max) Rollback() {
	t := m.open()
	for k := len(t.log) - 1; k >= 0; k-- {
		c := &t.log[k]
		switch c.kind {
		case predAdded:
			delete(m.preds, c.p.ID)
			if c.p.Eq() {
				delete(m.eqVal, c.p.Value)
			}
		case predDeleted:
			m.preds[c.p.ID] = c.p
			if c.p.Eq() {
				m.eqVal[c.p.Value] = c.p.ID
			}
		case setFiltered:
			c.p.Set = append(c.p.Set[:0], t.saved[c.from:c.to]...)
		}
	}
	copy(m.elem, t.elem)
	m.nextID, m.singletonEq, m.leCount = t.nextID, t.singletonEq, t.leCount
	m.end()
}

// open returns the open fold's trail.
func (m *Max) open() *trail {
	if m.trail == nil {
		panic("synopsis: no fold open")
	}
	return m.trail
}

// end closes the fold and returns its trail to the pool.
func (m *Max) end() {
	t := m.trail
	clear(t.log) // drop the predicate pointers
	t.log, t.saved = t.log[:0], t.saved[:0]
	m.trail = nil
	trailPool.Put(t)
}

// Fold folds the answered query [max(Q) = a] (kind query.Max) or
// [min(Q) = a] (kind query.Min) into b in place, normalizes it and checks
// it, and leaves the fold open: the caller inspects b, then Commit keeps
// the fold or Rollback undoes it. On inconsistency b is unchanged, no
// fold is left open and ErrInconsistent is returned.
func (b *MaxMin) Fold(kind query.Kind, q query.Set, a float64) error {
	b.max.begin()
	b.min.inner.begin()
	err := b.fold(kind, q, a)
	if err == nil {
		err = b.checkTouched()
	}
	if err != nil {
		b.Rollback()
		return err
	}
	return nil
}

// fold is Fold's fold and normalization, before the consistency check.
func (b *MaxMin) fold(kind query.Kind, q query.Set, a float64) error {
	var err error
	if kind == query.Max {
		err = b.max.Add(q, a)
	} else {
		err = b.min.Add(q, a)
	}
	if err != nil {
		return err
	}
	return b.normalize(a)
}

// Commit keeps the open fold.
func (b *MaxMin) Commit() {
	b.max.Commit()
	b.min.inner.Commit()
}

// Rollback undoes the open fold.
func (b *MaxMin) Rollback() {
	b.max.Rollback()
	b.min.inner.Rollback()
}

// checkTouched is checkConsistent restricted to what the open fold
// changed: every element whose predicate changed on either side must
// have a non-empty range, and every equality predicate that holds such
// an element, or whose set shrank, must keep a feasible witness.
//
// It gives checkConsistent's verdict because the synopsis the fold
// started from passed checkConsistent, and everything else is as it was:
//   - Range(i) depends only on i's predicate on each side. A predicate's
//     Value never changes, its Op changes only in Update, and the fold
//     assigns fresh IDs, so an element whose elem entries are unchanged
//     on both sides keeps its range.
//   - An equality predicate's witness feasibility depends only on its set
//     and its elements' ranges, so one whose set did not shrink and none
//     of whose elements changed keeps it. (A set only grows when it is
//     new, and then all its elements changed.)
//   - Every committed synopsis is consistent: a commit passes this check,
//     and Update only widens ranges and demotes equality predicates.
func (b *MaxMin) checkTouched() error {
	mx, mn := b.max, b.min.inner
	tx, tn := mx.trail, mn.trail
	xe, ne := tx.eqs[:0], tn.eqs[:0]
	for i, id := range mx.elem {
		jd := mn.elem[i]
		if id == tx.elem[i] && jd == tn.elem[i] {
			continue
		}
		px, pn := mx.pred(i), mn.pred(i)
		if b.rangeIn(px, pn).Empty() {
			return ErrInconsistent
		}
		xe = appendEqID(xe, px)
		ne = appendEqID(ne, pn)
	}
	xe, ne = mx.appendShrunkEq(xe), mn.appendShrunkEq(ne)
	tx.eqs, tn.eqs = xe, ne
	if !b.feasible(mx, xe, 1) || !b.feasible(mn, ne, -1) {
		return ErrInconsistent
	}
	return nil
}

// appendEqID appends p's ID to ids if p is an equality predicate not
// already last in ids.
func appendEqID(ids []int, p *Pred) []int {
	if p == nil || !p.Eq() || len(ids) > 0 && ids[len(ids)-1] == p.ID {
		return ids
	}
	return append(ids, p.ID)
}

// appendShrunkEq appends the IDs of the live equality predicates whose
// sets the open fold filtered.
func (m *Max) appendShrunkEq(ids []int) []int {
	for _, c := range m.trail.log {
		if c.kind == setFiltered && c.p.Eq() && m.preds[c.p.ID] == c.p {
			ids = append(ids, c.p.ID)
		}
	}
	return ids
}

// feasible reports whether each of m's predicates in ids has a feasible
// witness; sign orients m's values (-1 for the min side).
func (b *MaxMin) feasible(m *Max, ids []int, sign float64) bool {
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		p := m.preds[id]
		if !b.hasFeasibleWitness(p.Set, sign*p.Value) {
			return false
		}
	}
	return true
}
