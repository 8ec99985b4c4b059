package qindex

import (
	"container/list"
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
// intern-order dependence.
type Interner struct {
	mu  sync.Mutex
	max int
	// table buckets canonical entries by content hash; collisions are
	// resolved by element-wise comparison.
	table map[uint64][]*internEntry // auditlint:guardedby(mu)
	lru   *list.List                // auditlint:guardedby(mu)
	hits  uint64                    // auditlint:guardedby(mu)
	miss  uint64                    // auditlint:guardedby(mu)
	evict uint64                    // auditlint:guardedby(mu)
	// obs counts evictions WITH mu held (nil: uninstrumented).
	obs *metrics.QIndexCollector // auditlint:guardedby(mu)
}

type internEntry struct {
	hash uint64
	set  query.Set
	elem *list.Element
}

// DefaultInternEntries bounds the interner when the caller passes 0.
const DefaultInternEntries = 8192

// NewInterner returns an interner bounded to max canonical sets
// (0 selects DefaultInternEntries; negative means unbounded).
func NewInterner(max int) *Interner {
	if max == 0 {
		max = DefaultInternEntries
	}
	return &Interner{max: max, table: make(map[uint64][]*internEntry), lru: list.New()}
}

// Intern returns the canonical instance of s, registering s (clipped to
// exact capacity) if no structurally equal set is known. The empty set
// canonicalizes to nil.
func (in *Interner) Intern(s query.Set) query.Set {
	c, _ := in.intern(s)
	return c
}

// intern is Intern plus whether the set was already known (the empty set
// counts as known — it allocates nothing either way).
func (in *Interner) intern(s query.Set) (query.Set, bool) {
	if len(s) == 0 {
		return nil, true
	}
	h := hashSet(s)
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, e := range in.table[h] {
		if e.set.Equal(s) {
			in.hits++
			in.lru.MoveToFront(e.elem)
			return e.set, true
		}
	}
	in.miss++
	e := &internEntry{hash: h, set: s[:len(s):len(s)]}
	e.elem = in.lru.PushFront(e)
	in.table[h] = append(in.table[h], e)
	if in.max > 0 && in.lru.Len() > in.max {
		in.evictOldestLocked()
	}
	return e.set, false
}

// evictOldestLocked drops the least-recently interned set; callers hold mu.
func (in *Interner) evictOldestLocked() {
	back := in.lru.Back()
	if back == nil {
		return
	}
	in.lru.Remove(back)
	e := back.Value.(*internEntry)
	bucket := in.table[e.hash]
	for i, be := range bucket {
		if be == e {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(in.table, e.hash)
	} else {
		in.table[e.hash] = bucket
	}
	in.evict++
	in.obs.ObserveEviction("intern")
}

// setObserver installs the collector counting evictions (nil disables).
func (in *Interner) setObserver(o *metrics.QIndexCollector) {
	in.mu.Lock()
	in.obs = o
	in.mu.Unlock()
}

// InternStats is a point-in-time view of the interner's counters.
type InternStats struct {
	Size      int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats returns the interner counters under one lock acquisition.
func (in *Interner) Stats() InternStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return InternStats{Size: in.lru.Len(), Hits: in.hits, Misses: in.miss, Evictions: in.evict}
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
