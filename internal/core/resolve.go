package core

import (
	"queryaudit/internal/qindex"
	"queryaudit/internal/query"
)

// SQLResolver is the serving-path SQL front-end: ResolveSQL with a
// statement-string memo when the underlying Selector is a
// *qindex.Resolver. A repeated statement — the dominant shape under
// hot-key-skewed production traffic — then costs one cache probe and
// returns a query whose Set is the canonical interned instance, shared
// read-only across every analyst session, so resolution allocates
// nothing and every engine (and the replay/replication machinery
// downstream of the journal) sees identical sets.
//
// Errors are never cached; a malformed or unresolvable statement
// re-parses each time and reports exactly what the uncached path would.
type SQLResolver struct {
	sel Selector
	// res is sel when it is a qindex resolver; nil selects the uncached
	// path (naive scan per statement).
	res *qindex.Resolver
}

// NewSQLResolver wraps a Selector. When sel is a *qindex.Resolver the
// statement memo and set interning are enabled; any other Selector
// (e.g. *dataset.Dataset) resolves uncached.
func NewSQLResolver(sel Selector) *SQLResolver {
	r := &SQLResolver{sel: sel}
	if qr, ok := sel.(*qindex.Resolver); ok {
		r.res = qr
	}
	return r
}

// Indexed reports whether statements resolve through the qindex cache.
func (r *SQLResolver) Indexed() bool { return r.res != nil }

// Intern canonicalizes an externally built set (the explicit queryset
// path) when interning is enabled; otherwise returns s unchanged.
func (r *SQLResolver) Intern(s query.Set) query.Set {
	if r.res == nil {
		return s
	}
	return r.res.Intern(s)
}

// ResolveSQL parses and resolves one statement for the given sensitive
// attribute, memoized per (sensitive, sql) pair when indexed.
func (r *SQLResolver) ResolveSQL(sensitive, sql string) (query.Query, error) {
	if r.res == nil {
		return ResolveSQL(r.sel, sensitive, sql)
	}
	// The separator cannot appear in an identifier, so the key is
	// collision-free across sensitive-attribute names.
	key := sensitive + "\x00" + sql
	return r.res.CachedQuery(key, func() (query.Query, error) {
		return ResolveSQL(r.sel, sensitive, sql)
	})
}
