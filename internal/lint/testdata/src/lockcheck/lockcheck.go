// Package fixture exercises the lockcheck analyzer: guardedby
// annotations, the Locked-suffix and TryLock idioms, acquires-annotated
// helpers, goroutine lock-context resets, inline closures, per-instance
// lock matching, and a malformed annotation.
package fixture

import "sync"

// Counter guards its count with mu.
type Counter struct {
	mu sync.Mutex
	// auditlint:guardedby(mu)
	n int
}

// Bad reads n without the lock — flagged.
func (c *Counter) Bad() int {
	return c.n // want `Counter\.n \(guardedby mu\) accessed without holding c\.mu`
}

// Good locks around the access — clean.
func (c *Counter) Good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// bumpLocked relies on the caller-holds-the-lock naming convention.
func (c *Counter) bumpLocked() { c.n++ }

// Bump drives bumpLocked so it is not dead code.
func (c *Counter) Bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
}

// Try uses the TryLock guard-clause idiom — clean.
func (c *Counter) Try() (int, bool) {
	if !c.mu.TryLock() {
		return 0, false
	}
	n := c.n
	c.mu.Unlock()
	return n, true
}

// Spawn holds the lock, but a goroutine body is a fresh lock context —
// the access inside the closure is flagged.
func (c *Counter) Spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.n++ // want `Counter\.n \(guardedby mu\) accessed without holding c\.mu`
		close(done)
	}()
	<-done
}

// lock wraps the acquisition for its argument.
//
// auditlint:acquires(mu)
func lock(c *Counter) { c.mu.Lock() }

// Wrapped goes through the acquires-annotated helper — clean.
func Wrapped(c *Counter) int {
	lock(c)
	n := c.n
	c.mu.Unlock()
	return n
}

// Peek documents why its unlocked read is safe — suppressed.
func Peek(c *Counter) int {
	return c.n //auditlint:allow lockcheck fixture counter is freshly constructed and unshared
}

// Orphan's annotation names a mutex that is not a sibling field —
// reported as a malformed annotation.
type Orphan struct {
	// auditlint:guardedby(lock)
	n int // want `guardedby names mutex lock, which is not a field of Orphan`
}

// Read uses Orphan so it is not dead code; n is unguarded (the
// annotation was rejected), so this is clean.
func Read(o *Orphan) int { return o.n }

// TryBody reads inside the TryLock-guarded body — clean.
func (c *Counter) TryBody() int {
	n := 0
	if c.mu.TryLock() {
		n = c.n
		c.mu.Unlock()
	}
	return n
}

// Closure runs an inline (non-go) literal under the caller's lock: the
// literal executes on the caller's schedule, so the read is clean.
func (c *Counter) Closure() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	get := func() int { return c.n }
	return get()
}

// ClosureUnlocked is the same literal with no lock held — flagged.
func (c *Counter) ClosureUnlocked() int {
	get := func() int {
		return c.n // want `Counter\.n \(guardedby mu\) accessed without holding c\.mu`
	}
	return get()
}

// Other holds c.mu but reads another instance's counter: the lock is
// matched per instance, so the read is flagged against o.mu.
func (c *Counter) Other(o *Counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return o.n // want `Counter\.n \(guardedby mu\) accessed without holding o\.mu`
}

// acquire returns its argument locked.
//
// auditlint:acquires(mu)
func acquire(c *Counter) *Counter {
	c.mu.Lock()
	return c
}

// Acquired reads through the acquires-annotated helper's locked result
// — clean.
func Acquired(src *Counter) int {
	c := acquire(src)
	defer c.mu.Unlock()
	return c.n
}

// HandOver locks two counters and releases the first: Unlock drops the
// entry for its own instance, so b.mu is still held and the read is
// clean.
func HandOver(a, b *Counter) int {
	a.mu.Lock()
	b.mu.Lock()
	a.mu.Unlock()
	defer b.mu.Unlock()
	return b.n
}
