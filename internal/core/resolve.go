package core

import (
	"queryaudit/internal/qindex"
	"queryaudit/internal/query"
)

// SQLResolver is the serving-path SQL front-end: ResolveSQL with a
// statement-string memo over a *qindex.Resolver. A repeated statement —
// the dominant shape under hot-key-skewed production traffic — then
// costs one cache probe and returns a query whose Set is the canonical
// interned instance, shared read-only across every analyst session, so
// resolution allocates nothing and every engine (and the
// replay/replication machinery downstream of the journal) sees identical
// sets.
//
// Errors are never cached; a malformed or unresolvable statement
// re-parses each time and reports exactly what the uncached
// ResolveSQL(sel, …) reports.
type SQLResolver struct {
	res *qindex.Resolver
}

// NewSQLResolver wraps an indexed resolver — in a deployment, the
// spec's shared instance (EngineSpec.Resolver).
func NewSQLResolver(res *qindex.Resolver) *SQLResolver {
	return &SQLResolver{res: res}
}

// Intern canonicalizes an externally built set (the explicit queryset
// path).
func (r *SQLResolver) Intern(s query.Set) query.Set { return r.res.Intern(s) }

// ResolveSQL parses and resolves one statement for the given sensitive
// attribute, memoized per (sensitive, sql) pair.
func (r *SQLResolver) ResolveSQL(sensitive, sql string) (query.Query, error) {
	// The separator cannot appear in an identifier, so the key is
	// collision-free across sensitive-attribute names.
	key := sensitive + "\x00" + sql
	return r.res.CachedQuery(key, func() (query.Query, error) {
		return ResolveSQL(r.res, sensitive, sql)
	})
}
