package qindex

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"time"

	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
)

// DefaultCacheEntries bounds the pred and sql memos.
const DefaultCacheEntries = 4096

// Resolver is the serving-path façade over the index: predicate and
// statement resolution with interned results and LRU memoization. Safe
// for concurrent use. Because public attributes are immutable (dataset
// updates touch only sensitive values), cached entries never go stale;
// the LRU bound exists only to cap memory under adversarial query
// diversity.
type Resolver struct {
	idx *Index
	in  *Interner

	mu    sync.Mutex
	obs   *metrics.QIndexCollector // auditlint:guardedby(mu)
	preds *lru[query.Set]          // auditlint:guardedby(mu)
	sqls  *lru[cachedStatement]    // auditlint:guardedby(mu)

	buildRows    int
	buildElapsed time.Duration
}

// cachedStatement is one memoized statement resolution.
type cachedStatement struct {
	q query.Query
}

// NewResolver builds the index over ds and wraps it with empty caches
// bounded to DefaultCacheEntries statements and predicates and
// DefaultInternEntries canonical sets.
func NewResolver(ds *dataset.Dataset) *Resolver {
	return newResolver(ds, DefaultCacheEntries, DefaultInternEntries)
}

// newResolver is NewResolver with explicit memo and interner bounds.
func newResolver(ds *dataset.Dataset, cacheEntries, internEntries int) *Resolver {
	start := time.Now() //auditlint:allow detrand build-duration stat for ops visibility; never read by resolution or decisions
	idx := Build(ds)
	return &Resolver{
		idx:          idx,
		in:           NewInterner(internEntries),
		preds:        newLRU[query.Set](cacheEntries),
		sqls:         newLRU[cachedStatement](cacheEntries),
		buildRows:    ds.N(),
		buildElapsed: time.Since(start),
	}
}

// Index returns the underlying immutable index.
func (r *Resolver) Index() *Index { return r.idx }

// Interner returns the canonical-set table, shared with the explicit
// queryset path so both resolution surfaces yield pointer-equal sets.
func (r *Resolver) Interner() *Interner { return r.in }

// SetObserver installs the resolver's collector (nil disables) and
// reports the deferred build cost to it, so collectors wired after
// construction still see qindex_build_* populated.
func (r *Resolver) SetObserver(o *metrics.QIndexCollector) {
	r.mu.Lock()
	r.obs = o
	r.mu.Unlock()
	r.in.setObserver(o)
	o.ObserveBuild(r.buildRows, r.buildElapsed)
}

// Intern canonicalizes an externally built set (the /v1/queryset path).
func (r *Resolver) Intern(s query.Set) query.Set {
	c, hit := r.in.intern(s)
	r.collector().ObserveIntern(hit)
	return c
}

// Select resolves pred through the memo and index; the result is
// interned, capacity-clipped and shared — callers must not mutate it.
// It implements the core.Selector interface, drop-in for
// (*dataset.Dataset).Select.
func (r *Resolver) Select(pred dataset.Predicate) query.Set {
	key, cacheable := predKey(pred)
	if !cacheable {
		// A predicate type we cannot canonically serialize is resolved
		// fresh every time (the index itself falls back to the scan);
		// the result is still interned so repeats share memory.
		s, hit := r.in.intern(r.idx.Select(pred))
		r.collector().ObserveIntern(hit)
		return s
	}
	r.mu.Lock()
	if s, ok := r.preds.get(key); ok {
		obs := r.obs
		r.mu.Unlock()
		obs.ObserveResolve("pred", true)
		return s
	}
	r.mu.Unlock()
	// Resolve outside the lock: a slow naive fallback must not block
	// cache hits. A concurrent duplicate miss resolves to an identical,
	// interner-deduplicated set, so double insertion is benign.
	s, hit := r.in.intern(r.idx.Select(pred))
	r.mu.Lock()
	obs := r.obs
	evicted := r.preds.add(key, s)
	r.mu.Unlock()
	obs.ObserveIntern(hit)
	obs.ObserveResolve("pred", false)
	if evicted {
		obs.ObserveEviction("pred")
	}
	return s
}

// CachedQuery memoizes a statement-level resolution under key (the
// normalized SQL text). On a miss, build runs outside the resolver lock
// and its result — when it carries a non-empty set — is interned and
// cached. Errors are never cached: the error path re-parses, keeping
// malformed-query handling identical to the uncached resolver.
func (r *Resolver) CachedQuery(key string, build func() (query.Query, error)) (query.Query, error) {
	r.mu.Lock()
	if c, ok := r.sqls.get(key); ok {
		obs := r.obs
		r.mu.Unlock()
		obs.ObserveResolve("sql", true)
		return c.q, nil
	}
	r.mu.Unlock()
	q, err := build()
	if err != nil {
		r.collector().ObserveResolve("sql", false)
		return q, err
	}
	s, hit := r.in.intern(q.Set)
	q.Set = s
	r.mu.Lock()
	obs := r.obs
	evicted := r.sqls.add(key, cachedStatement{q: q})
	r.mu.Unlock()
	obs.ObserveIntern(hit)
	obs.ObserveResolve("sql", false)
	if evicted {
		obs.ObserveEviction("sql")
	}
	return q, nil
}

// predKey serializes a predicate tree into an unambiguous cache key.
// pred.String() is NOT usable here: the SQL-ish rendering is ambiguous —
// an empty AndPred and an empty OrPred both print "" (but mean
// "everything" vs "nothing"), and "A AND B OR C" could be either
// AndPred{A, OrPred{B, C}} or OrPred{AndPred{A, B}, C}. The key instead
// tags every node, length-prefixes every string, and renders floats as
// exact hex. ok is false for predicate types this package cannot
// serialize; those bypass the memo.
func predKey(pred dataset.Predicate) (string, bool) {
	var b strings.Builder
	if !appendPredKey(&b, pred) {
		return "", false
	}
	return b.String(), true
}

func appendPredKey(b *strings.Builder, pred dataset.Predicate) bool {
	switch p := pred.(type) {
	case dataset.TruePred:
		b.WriteByte('T')
	case dataset.EqPred:
		b.WriteByte('E')
		writeLenPrefixed(b, p.Attr)
		writeLenPrefixed(b, p.Val)
	case dataset.RangePred:
		b.WriteByte('R')
		writeLenPrefixed(b, p.Attr)
		b.WriteString(strconv.FormatFloat(p.Lo, 'x', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(p.Hi, 'x', -1, 64))
	case dataset.AndPred:
		b.WriteByte('A')
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte('(')
		for _, sub := range p {
			if !appendPredKey(b, sub) {
				return false
			}
		}
		b.WriteByte(')')
	case dataset.OrPred:
		b.WriteByte('O')
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte('(')
		for _, sub := range p {
			if !appendPredKey(b, sub) {
				return false
			}
		}
		b.WriteByte(')')
	default:
		return false
	}
	return true
}

func writeLenPrefixed(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// collector returns the installed collector (nil when uninstrumented).
func (r *Resolver) collector() *metrics.QIndexCollector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.obs
}

// Stats is a point-in-time view of the resolver's cache occupancy.
type Stats struct {
	PredEntries int
	SQLEntries  int
	Intern      InternStats
}

// Stats reports cache occupancy and interner counters.
func (r *Resolver) Stats() Stats {
	r.mu.Lock()
	st := Stats{PredEntries: r.preds.len(), SQLEntries: r.sqls.len()}
	r.mu.Unlock()
	st.Intern = r.in.Stats()
	return st
}

// lru is a minimal string-keyed LRU map. Not goroutine-safe; the owner
// locks around it.
type lru[V any] struct {
	max int
	m   map[string]*list.Element
	l   *list.List
}

type lruPair[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, m: make(map[string]*list.Element), l: list.New()}
}

func (c *lru[V]) len() int { return c.l.Len() }

func (c *lru[V]) get(key string) (V, bool) {
	if e, ok := c.m[key]; ok {
		c.l.MoveToFront(e)
		return e.Value.(*lruPair[V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts key → val (refreshing an existing key) and reports whether
// an old entry was evicted to stay within the bound.
func (c *lru[V]) add(key string, val V) bool {
	if e, ok := c.m[key]; ok {
		e.Value.(*lruPair[V]).val = val
		c.l.MoveToFront(e)
		return false
	}
	c.m[key] = c.l.PushFront(&lruPair[V]{key: key, val: val})
	if c.max > 0 && c.l.Len() > c.max {
		back := c.l.Back()
		c.l.Remove(back)
		delete(c.m, back.Value.(*lruPair[V]).key)
		return true
	}
	return false
}
