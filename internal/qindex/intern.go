package qindex

import (
	"sync"

	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
)

// Interner hash-conses query sets: structurally equal sets resolve to
// one canonical, pointer-equal (shared backing array) instance, so
// repeated and hot-key-skewed queries allocate nothing after first
// resolution and auditors comparing a query against a logged one can
// short-circuit on identity (&s[0] == &t[0]) before falling back to
// element-wise Equal.
//
// Canonical sets are read-only and capacity-clipped: an append to one
// always reallocates, so no caller can clobber a set another session
// holds. The table is LRU-bounded; evicting an entry only forgets the
// canonical pointer (outstanding references stay valid — sets are
// immutable), so a re-interned set after eviction is merely a fresh
// allocation, never a correctness event.
//
// Hashing is FNV-1a over the index values — deterministic across
// processes and runs, so replay/replication never observe an
// intern-order dependence. The table keeps one canonical set per hash:
// a set whose hash collides with a different stored set replaces it, so
// analyst-chosen colliding sets cannot grow the table past its bound.
type Interner struct {
	hash func(query.Set) uint64

	mu    sync.Mutex
	table *lru[uint64, query.Set] // auditlint:guardedby(mu)
	// obs counts hits, misses and evictions WITH mu held (nil:
	// uninstrumented).
	obs *metrics.QIndexCollector // auditlint:guardedby(mu)
}

// DefaultInternEntries bounds the interner when the caller passes 0.
const DefaultInternEntries = 8192

// NewInterner returns an interner bounded to max content hashes
// (0 selects DefaultInternEntries).
func NewInterner(max int) *Interner {
	if max == 0 {
		max = DefaultInternEntries
	}
	return &Interner{hash: hashSet, table: newLRU[uint64, query.Set](max)}
}

// Intern returns the canonical instance of s, registering s (clipped to
// exact capacity) if no structurally equal set is known. The empty set
// canonicalizes to nil and counts as a hit: it allocates nothing. A
// registration that displaces a colliding set, or the least recently
// used one, counts as an eviction.
func (in *Interner) Intern(s query.Set) query.Set {
	h := in.hash(s)
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(s) == 0 {
		in.obs.ObserveIntern(true)
		return nil
	}
	old, collided := in.table.get(h)
	if collided && old.Equal(s) {
		in.obs.ObserveIntern(true)
		return old
	}
	in.obs.ObserveIntern(false)
	c := s[:len(s):len(s)]
	if in.table.add(h, c) || collided {
		in.obs.ObserveEviction("intern")
	}
	return c
}

// setObserver installs the collector counting internings and evictions
// (nil disables).
func (in *Interner) setObserver(o *metrics.QIndexCollector) {
	in.mu.Lock()
	in.obs = o
	in.mu.Unlock()
}

// hashSet is FNV-1a over the little-endian bytes of each index.
func hashSet(s query.Set) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range s {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}
