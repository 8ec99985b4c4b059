package qindex

import (
	"sync"
	"time"

	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
)

// DefaultCacheEntries bounds the statement memo.
const DefaultCacheEntries = 4096

// Resolver is the serving-path façade over the index: predicate
// resolution with interned results, and a statement memo in front of
// it. Safe for concurrent use. Because public attributes are immutable
// (dataset updates touch only sensitive values), memoized statements
// never go stale; the LRU bound exists only to cap memory under
// adversarial query diversity.
type Resolver struct {
	idx *Index
	in  *Interner

	mu   sync.Mutex
	obs  *metrics.QIndexCollector  // auditlint:guardedby(mu)
	sqls *lru[string, query.Query] // auditlint:guardedby(mu)

	buildRows    int
	buildElapsed time.Duration
}

// NewResolver builds the index over ds and wraps it with an empty
// statement memo bounded to DefaultCacheEntries and an interner bounded
// to DefaultInternEntries.
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
		sqls:         newLRU[string, query.Query](cacheEntries),
		buildRows:    ds.N(),
		buildElapsed: time.Since(start),
	}
}

// Index returns the underlying immutable index.
func (r *Resolver) Index() *Index { return r.idx }

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

// Intern canonicalizes an externally built set (the /v1/queryset path),
// so both resolution surfaces yield pointer-equal sets.
func (r *Resolver) Intern(s query.Set) query.Set { return r.in.Intern(s) }

// Select resolves pred through the index; the result is interned,
// capacity-clipped and shared — callers must not mutate it. It
// implements the core.Selector interface, drop-in for
// (*dataset.Dataset).Select.
func (r *Resolver) Select(pred dataset.Predicate) query.Set {
	return r.in.Intern(r.idx.Select(pred))
}

// CachedQuery memoizes a statement-level resolution under key (the
// normalized SQL text). On a miss, build runs outside the resolver lock
// and its result is cached as returned: build resolves through Select
// or Intern, so its set is already canonical. Errors are never cached:
// the error path re-parses, keeping malformed-query handling identical
// to the uncached resolver.
func (r *Resolver) CachedQuery(key string, build func() (query.Query, error)) (query.Query, error) {
	r.mu.Lock()
	obs := r.obs
	if q, ok := r.sqls.get(key); ok {
		r.mu.Unlock()
		obs.ObserveResolve(true)
		return q, nil
	}
	r.mu.Unlock()
	q, err := build()
	if err != nil {
		obs.ObserveResolve(false)
		return q, err
	}
	r.mu.Lock()
	evicted := r.sqls.add(key, q)
	r.mu.Unlock()
	obs.ObserveResolve(false)
	if evicted {
		obs.ObserveEviction("sql")
	}
	return q, nil
}
