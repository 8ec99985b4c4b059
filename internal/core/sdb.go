package core

import (
	"fmt"

	"queryaudit/internal/dataset"
	"queryaudit/internal/qindex"
	"queryaudit/internal/query"
)

// Selector resolves a public-attribute predicate to its query set. Both
// *dataset.Dataset (the naive O(n · preds) row scan) and
// *qindex.Resolver (indexed, interned, memoized) implement it; the two
// are semantically identical by qindex's equivalence property tests, so
// every resolution path below accepts either.
type Selector interface {
	Select(dataset.Predicate) query.Set
}

// SDB is the user-facing statistical database: an engine plus the
// SQL-ish query surface over public attributes.
type SDB struct {
	eng *Engine
	// sensitive is the name accepted inside aggregate parentheses, e.g.
	// "salary" in sum(salary).
	sensitive string
	// res resolves SQL statements; by default an indexed, memoizing
	// resolver over the engine's dataset (see SQLResolver).
	res *SQLResolver
}

// NewSDB wraps an engine; sensitive names the aggregate target column.
// Statements are resolved through a qindex.Resolver built over the
// engine's dataset — O(log n + |result|) per predicate with interned
// result sets — rather than the naive row scan. Use SetSelector to
// install a different resolution path (e.g. the plain dataset for
// baseline measurements).
func NewSDB(eng *Engine, sensitive string) *SDB {
	return &SDB{
		eng:       eng,
		sensitive: sensitive,
		res:       NewSQLResolver(qindex.NewResolver(eng.Dataset(), qindex.Options{})),
	}
}

// Engine exposes the underlying engine.
func (s *SDB) Engine() *Engine { return s.eng }

// Resolver returns the SQL resolution front-end the SDB routes through.
func (s *SDB) Resolver() *SQLResolver { return s.res }

// SetSelector replaces the predicate-resolution path. Passing the
// engine's own dataset selects the naive scan (the pre-index behaviour);
// passing a *qindex.Resolver restores indexed resolution with caching.
func (s *SDB) SetSelector(sel Selector) { s.res = NewSQLResolver(sel) }

// ResolveSQL parses one SQL-ish statement and resolves its predicate
// through sel into an auditable query, without running it — the front-
// end half of Query, split out so a multi-session server can parse once
// and route the query to any analyst's engine. Predicate resolution
// touches only the public attributes, which are immutable after
// generation, so ResolveSQL is safe to call concurrently with
// sensitive-value updates. Uncached: see SQLResolver for the memoized
// serving-path variant.
func ResolveSQL(sel Selector, sensitive, sql string) (query.Query, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return query.Query{}, err
	}
	if stmt.Target != sensitive {
		return query.Query{}, fmt.Errorf("core: unknown aggregate target %q (sensitive attribute is %q)", stmt.Target, sensitive)
	}
	set := sel.Select(stmt.Predicate())
	if len(set) == 0 {
		return query.Query{}, fmt.Errorf("core: predicate selects no records")
	}
	return query.Query{Set: set, Kind: stmt.Agg}, nil
}

// Query parses and runs one SQL-ish statement:
//
//	SELECT <agg>(<sensitive>) [FROM <ident>] [WHERE <pred> {AND <pred>}]
//	pred := <attr> BETWEEN <num> AND <num>
//	      | <attr> = '<string>'
//	      | <attr> >= <num> | <attr> <= <num>
//
// The FROM clause is accepted and ignored (the SDB hosts one table).
func (s *SDB) Query(sql string) (Response, error) {
	q, err := s.res.ResolveSQL(s.sensitive, sql)
	if err != nil {
		return Response{Denied: true}, err
	}
	return s.eng.Ask(q)
}

// Statement is a parsed SQL-ish query.
type Statement struct {
	Agg    query.Kind
	Target string
	Preds  []dataset.Predicate
}

// Predicate returns the conjunction of the WHERE predicates (TRUE when
// absent).
func (st Statement) Predicate() dataset.Predicate {
	if len(st.Preds) == 0 {
		return dataset.TruePred{}
	}
	if len(st.Preds) == 1 {
		return st.Preds[0]
	}
	return dataset.AndPred(st.Preds)
}
