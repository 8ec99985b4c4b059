// Package fixture exercises the lockorder analyzer: a two-class
// acquisition cycle, a summary-propagated self-deadlock, the TryLock
// fast-path exemption, a blocking edge recorded after a TryLock one for
// the same pair, an acquires-annotated helper closing a cycle the
// syntax alone would miss, and an inline literal that adds no edge.
package fixture

import "sync"

// A and B are two independently locked structures.
type A struct {
	mu sync.Mutex
	n  int
}

type B struct {
	mu sync.Mutex
	n  int
}

// LockAB acquires A.mu then B.mu.
func LockAB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock-order cycle \(deadlock risk\).*A\.mu → .*B\.mu → .*A\.mu`
	b.n++
	b.mu.Unlock()
}

// LockBA acquires them in the opposite order — together with LockAB
// this is the deadlock pair. The cycle is reported once, anchored at
// the first edge in source order (in LockAB above).
func LockBA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

// C self-deadlocks through a helper: Outer holds C.mu when it calls
// lockedHelper, whose summary says it blocks on C.mu again.
type C struct {
	mu sync.Mutex
	n  int
}

func (c *C) Outer(other *C) {
	c.mu.Lock()
	defer c.mu.Unlock()
	other.lockedHelper() // want `lock .*C\.mu acquired while an instance of the same class is already held`
}

func (c *C) lockedHelper() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// D and E order against each other only through TryLock fast paths:
// the reverse edge is non-blocking, so no deadlock cycle exists.
type D struct {
	mu sync.Mutex
	n  int
}

type E struct {
	mu sync.Mutex
	n  int
}

func LockDE(d *D, e *E) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
}

func TryED(d *D, e *E) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !d.mu.TryLock() { // fails fast: not a blocking edge, no cycle
		return false
	}
	d.n++
	d.mu.Unlock()
	return true
}

// F and G cycle through an annotated helper: touchF carries
// auditlint:acquires(mu) instead of visible lock syntax (imagine the
// lock buried behind build tags), and the annotation alone must supply
// the G.mu → F.mu edge.
type F struct {
	mu sync.Mutex
	n  int
}

type G struct {
	mu sync.Mutex
	n  int
}

func LockFG(f *F, g *G) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g.mu.Lock() // want `lock-order cycle \(deadlock risk\).*F\.mu → .*G\.mu → .*F\.mu`
	g.n++
	g.mu.Unlock()
}

func LockGThenTouchF(f *F, g *G) {
	g.mu.Lock()
	defer g.mu.Unlock()
	touchF(f)
}

// auditlint:acquires(mu)
func touchF(f *F) {
	f.n++ // the annotation asserts the lock; lockcheck trusts it too
}

// P and Q deadlock through blocking acquisitions only, but the first
// P.mu → Q.mu edge in source order is First's TryLock fast path. The
// blocking edge in Second must replace it, or the cycle is missed.
type P struct {
	mu sync.Mutex
	n  int
}

type Q struct {
	mu sync.Mutex
	n  int
}

func First(p *P, q *Q) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if q.mu.TryLock() {
		q.n++
		q.mu.Unlock()
	}
}

func Second(p *P, q *Q) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q.mu.Lock() // want `lock-order cycle \(deadlock risk\).*P\.mu → .*Q\.mu → .*P\.mu`
	q.n++
	q.mu.Unlock()
}

func Third(p *P, q *Q) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
}

// R → S is taken only inside a function value, which may run after
// r.mu is released, or never. The scan charges an inline literal no
// order edge, so LockSR's S → R order closes no cycle.
type R struct {
	mu sync.Mutex
	n  int
}

type S struct {
	mu sync.Mutex
	n  int
}

func LockRThenBumpS(r *R, s *S) func() {
	r.mu.Lock()
	defer r.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}
}

func LockSR(r *R, s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}
