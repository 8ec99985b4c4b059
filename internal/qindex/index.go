// Package qindex accelerates predicate → query-set resolution on the
// serving path. The paper's model fixes the public attributes at
// generation time (updates touch only the sensitive value, dataset
// §5–6), which makes every structure here immutable after Build: an
// inverted index per public attribute — posting lists for string
// equality, a sorted numeric column with binary-searched range cuts —
// plus canonical query.Set interning (intern.go) and memoized resolution
// (resolver.go) so the per-request cost of "WHERE age BETWEEN 30 AND 40"
// drops from a full O(n · preds) interface-dispatched row scan to
// O(log n + |result|), and to a single cache probe for repeated queries.
//
// Semantics are defined by equivalence: for every predicate the index
// can serve, Index.Select returns exactly what dataset.Dataset.Select
// returns (property- and fuzz-tested in equiv_test.go), including the
// scan's corner cases — predicates naming unknown attributes match
// nothing, string equality on a numeric attribute compares against the
// zero Str, numeric ranges on a categorical attribute compare against
// the zero Num, and NaN never satisfies a range. Predicate types the
// index does not recognize fall back to the naive scan.
package qindex

import (
	"math"
	"sort"

	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
)

// Index is an immutable inverted index over one dataset's public
// attributes. It is safe for concurrent use by multiple goroutines
// without locking: all state is frozen by Build.
type Index struct {
	ds  *dataset.Dataset
	all query.Set // every row index; the TruePred / no-WHERE result
	// attrs indexes every schema attribute both ways — postings over the
	// Str field and a sorted column over the Num field — because
	// dataset predicates do not consult the declared attribute Kind:
	// an EqPred on a numeric attribute legitimately (if uselessly)
	// matches rows whose Str field is "".
	attrs map[string]*attrIndex
}

// attrIndex holds both views of one attribute column.
type attrIndex struct {
	// postings maps each distinct Str value to the sorted row indices
	// holding it.
	postings map[string]query.Set
	// byNum is every non-NaN row ordered by (Num, row); NaN rows can
	// never satisfy a range predicate (v >= lo is false for NaN) so they
	// are simply absent.
	byNum []numEntry
}

type numEntry struct {
	val float64
	row int
}

// Build constructs the index for ds. Cost is O(n · attrs · log n) time
// and O(n · attrs) memory, paid once per dataset; the result shares no
// mutable state with ds beyond the row indices themselves.
func Build(ds *dataset.Dataset) *Index {
	n := ds.N()
	idx := &Index{
		ds:    ds,
		all:   make(query.Set, n),
		attrs: make(map[string]*attrIndex, len(ds.Schema())),
	}
	for i := 0; i < n; i++ {
		idx.all[i] = i
	}
	for _, a := range ds.Schema() {
		ai := &attrIndex{
			postings: make(map[string]query.Set),
			byNum:    make([]numEntry, 0, n),
		}
		for i := 0; i < n; i++ {
			v, err := ds.Public(i, a.Name)
			if err != nil {
				continue
			}
			ai.postings[v.Str] = append(ai.postings[v.Str], i)
			if !math.IsNaN(v.Num) {
				ai.byNum = append(ai.byNum, numEntry{val: v.Num, row: i})
			}
		}
		sort.Slice(ai.byNum, func(x, y int) bool {
			if ai.byNum[x].val != ai.byNum[y].val {
				return ai.byNum[x].val < ai.byNum[y].val
			}
			return ai.byNum[x].row < ai.byNum[y].row
		})
		idx.attrs[a.Name] = ai
	}
	return idx
}

// N returns the number of rows the index covers.
func (ix *Index) N() int { return len(ix.all) }

// Dataset returns the dataset the index was built over.
func (ix *Index) Dataset() *dataset.Dataset { return ix.ds }

// Select resolves pred to its query set, falling back to the naive row
// scan for predicate types the index does not understand. The returned
// set may share memory with the index (posting lists, the full set);
// callers must treat it as read-only — Resolver hands out only
// capacity-clipped interned sets, so appends can never clobber it.
func (ix *Index) Select(pred dataset.Predicate) query.Set {
	if s, ok := ix.lookup(pred); ok {
		return s
	}
	return ix.ds.Select(pred)
}

// lookup resolves the known predicate forms; ok is false when pred (or a
// sub-predicate) is of a type the index cannot serve.
func (ix *Index) lookup(pred dataset.Predicate) (query.Set, bool) {
	switch p := pred.(type) {
	case dataset.TruePred:
		return ix.all, true
	case dataset.EqPred:
		ai, ok := ix.attrs[p.Attr]
		if !ok {
			return nil, true // unknown attribute matches nothing, like Match
		}
		return ai.postings[p.Val], true
	case dataset.RangePred:
		ai, ok := ix.attrs[p.Attr]
		if !ok {
			return nil, true
		}
		return ai.rangeSet(p.Lo, p.Hi, ix.all), true
	case dataset.AndPred:
		return ix.conjunction(p)
	case dataset.OrPred:
		return ix.disjunction(p)
	default:
		return nil, false
	}
}

// rangeSet cuts [lo, hi] out of the sorted column. all is the full row
// set, returned (shared) when the cut covers every row.
func (ai *attrIndex) rangeSet(lo, hi float64, all query.Set) query.Set {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return nil // no value satisfies v >= NaN / v <= NaN / an inverted range
	}
	// First entry with val >= lo, first entry with val > hi.
	start := sort.Search(len(ai.byNum), func(i int) bool { return ai.byNum[i].val >= lo })
	end := sort.Search(len(ai.byNum), func(i int) bool { return ai.byNum[i].val > hi })
	if start >= end {
		return nil
	}
	if start == 0 && end == len(ai.byNum) && len(ai.byNum) == len(all) {
		return all
	}
	out := make(query.Set, end-start)
	for i := start; i < end; i++ {
		out[i-start] = ai.byNum[i].row
	}
	sort.Ints(out)
	return out
}

// conjunction intersects sub-predicate sets smallest-first, short-
// circuiting on empty.
func (ix *Index) conjunction(p dataset.AndPred) (query.Set, bool) {
	if len(p) == 0 {
		return ix.all, true // vacuous conjunction matches everything
	}
	sets := make([]query.Set, len(p))
	for i, sub := range p {
		s, ok := ix.lookup(sub)
		if !ok {
			return nil, false
		}
		if len(s) == 0 {
			return nil, true
		}
		sets[i] = s
	}
	sort.Slice(sets, func(a, b int) bool { return len(sets[a]) < len(sets[b]) })
	acc := sets[0]
	for _, s := range sets[1:] {
		acc = acc.Intersect(s)
		if len(acc) == 0 {
			return nil, true
		}
	}
	return acc, true
}

// disjunction unions sub-predicate sets.
func (ix *Index) disjunction(p dataset.OrPred) (query.Set, bool) {
	var acc query.Set
	for _, sub := range p {
		s, ok := ix.lookup(sub)
		if !ok {
			return nil, false
		}
		if len(s) == 0 {
			continue
		}
		if acc == nil {
			acc = s
			continue
		}
		acc = acc.Union(s)
	}
	if len(acc) == len(ix.all) {
		return ix.all, true
	}
	return acc, true
}
