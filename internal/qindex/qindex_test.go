package qindex

import (
	"errors"
	"sync"
	"testing"

	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

func companyDS(n int) *dataset.Dataset {
	return dataset.GenerateCompany(randx.New(1), dataset.DefaultCompanyConfig(n))
}

// observedInterner returns an interner counting into a fresh registry,
// and a reader of that registry's counters.
func observedInterner(max int) (*Interner, func(string) int64) {
	in := NewInterner(max)
	reg := metrics.NewRegistry()
	in.setObserver(metrics.NewQIndexCollector(reg))
	return in, func(name string) int64 { return reg.Snapshot().Counters[name] }
}

func TestInternerCanonicalizes(t *testing.T) {
	in, counter := observedInterner(0)
	a := in.Intern(query.NewSet(3, 1, 2))
	b := in.Intern(query.NewSet(1, 2, 3))
	if &a[0] != &b[0] {
		t.Fatalf("equal sets not pointer-equal after interning")
	}
	if c := in.Intern(query.NewSet(9)); &c[0] == &a[0] {
		t.Fatalf("distinct sets interned to the same instance")
	}
	if got := in.Intern(nil); got != nil {
		t.Fatalf("empty set should canonicalize to nil, got %v", got)
	}
	// The empty set counts as a hit: it allocates nothing.
	if hits, misses := counter("qindex_intern_hits_total"), counter("qindex_intern_misses_total"); hits != 2 || misses != 2 {
		t.Fatalf("intern hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestInternerClipsCapacity(t *testing.T) {
	in := NewInterner(0)
	backing := make(query.Set, 2, 8)
	backing[0], backing[1] = 4, 7
	c := in.Intern(backing)
	if cap(c) != len(c) {
		t.Fatalf("canonical set not capacity-clipped: len %d cap %d", len(c), cap(c))
	}
	// Appending to the canonical set must reallocate, never write into
	// shared memory.
	grown := append(c, 99)
	again := in.Intern(query.NewSet(4, 7))
	if len(again) != 2 || again[0] != 4 || again[1] != 7 {
		t.Fatalf("canonical set clobbered by append: %v (grown %v)", again, grown)
	}
}

func TestInternerEvicts(t *testing.T) {
	in, counter := observedInterner(3)
	for i := 0; i < 10; i++ {
		in.Intern(query.NewSet(i))
	}
	if ev := counter("qindex_evictions_intern_total"); ev != 7 {
		t.Fatalf("evictions = %d, want 7", ev)
	}
	// The three most recent sets are still canonical; the oldest is not.
	for i := 7; i < 10; i++ {
		in.Intern(query.NewSet(i))
	}
	if hits, ev := counter("qindex_intern_hits_total"), counter("qindex_evictions_intern_total"); hits != 3 || ev != 7 {
		t.Fatalf("after re-interning the newest three: hits=%d evictions=%d, want 3/7 (bounded to 3)", hits, ev)
	}
	// An evicted set re-interns cleanly (fresh canonical instance).
	if s := in.Intern(query.NewSet(0)); len(s) != 1 || s[0] != 0 {
		t.Fatalf("re-intern after eviction: %v", s)
	}
}

// TestInternerCollisionsStayBounded forces every set onto one hash:
// the table must keep one canonical set, not a growing bucket, and
// every interning must still return a set equal by content.
func TestInternerCollisionsStayBounded(t *testing.T) {
	in, counter := observedInterner(4)
	in.hash = func(query.Set) uint64 { return 7 }
	for i := 0; i < 100; i++ {
		s := query.NewSet(i, i+1)
		if got := in.Intern(s); !got.Equal(s) {
			t.Fatalf("intern(%v) = %v", s, got)
		}
	}
	if n := in.table.l.Len(); n != 1 {
		t.Fatalf("table holds %d entries after 100 colliding sets, want 1", n)
	}
	if misses, ev := counter("qindex_intern_misses_total"), counter("qindex_evictions_intern_total"); misses != 100 || ev != 99 {
		t.Fatalf("misses=%d evictions=%d, want 100/99", misses, ev)
	}
	// The last set stays canonical until a colliding set displaces it.
	a := in.Intern(query.NewSet(99, 100))
	b := in.Intern(query.NewSet(99, 100))
	if &a[0] != &b[0] || counter("qindex_intern_hits_total") != 2 {
		t.Fatalf("stored set not canonical: hits=%d", counter("qindex_intern_hits_total"))
	}
}

func TestLRUBasics(t *testing.T) {
	c := newLRU[string, int](2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	if evicted := c.add("c", 3); !evicted {
		t.Fatal("expected eviction adding c")
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b should be the evicted entry (a was refreshed)")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("a = %d,%v", v, ok)
	}
	c.add("a", 9)
	if v, _ := c.get("a"); v != 9 {
		t.Fatalf("refresh did not update value: %d", v)
	}
}

func TestCachedQueryDoesNotCacheErrors(t *testing.T) {
	r := NewResolver(companyDS(50))
	calls := 0
	build := func() (query.Query, error) {
		calls++
		return query.Query{}, errors.New("nope")
	}
	for i := 0; i < 3; i++ {
		if _, err := r.CachedQuery("bad", build); err == nil {
			t.Fatal("expected error")
		}
	}
	if calls != 3 {
		t.Fatalf("error results must not be cached: build ran %d times, want 3", calls)
	}
	ok := func() (query.Query, error) {
		calls++
		return query.Query{Set: query.NewSet(1, 2), Kind: query.Sum}, nil
	}
	q1, _ := r.CachedQuery("good", ok)
	q2, _ := r.CachedQuery("good", ok)
	if calls != 4 {
		t.Fatalf("successful result not cached: build ran %d times, want 4", calls)
	}
	if &q1.Set[0] != &q2.Set[0] {
		t.Fatal("cached queries should share the interned set")
	}
}

// TestObserverSeesResolveEvents: the resolver's collector counts the
// deferred build, each statement-memo hit and miss, internings and
// evictions.
func TestObserverSeesResolveEvents(t *testing.T) {
	ds := companyDS(80)
	r := NewResolver(ds)
	reg := metrics.NewRegistry()
	r.SetObserver(metrics.NewQIndexCollector(reg))
	counter := func(name string) int64 { return reg.Snapshot().Counters[name] }
	if counter("qindex_builds_total") != 1 || counter("qindex_build_rows_total") != 80 {
		t.Fatalf("deferred build report: builds=%d rows=%d", counter("qindex_builds_total"), counter("qindex_build_rows_total"))
	}
	pred := dataset.RangePred{Attr: "age", Lo: 25, Hi: 45}
	r.Select(pred)
	r.Select(pred)
	if counter("qindex_intern_misses_total") != 1 || counter("qindex_intern_hits_total") != 1 {
		t.Fatalf("intern: hits=%d misses=%d, want 1/1", counter("qindex_intern_hits_total"), counter("qindex_intern_misses_total"))
	}
	build := func() (query.Query, error) {
		return query.Query{Set: r.Select(pred), Kind: query.Sum}, nil
	}
	r.CachedQuery("q1", build)
	r.CachedQuery("q1", build)
	if counter("qindex_sql_misses_total") != 1 || counter("qindex_sql_hits_total") != 1 {
		t.Fatalf("sql layer: hits=%d misses=%d, want 1/1", counter("qindex_sql_hits_total"), counter("qindex_sql_misses_total"))
	}
	// The statement miss interns once, in Select; the memo hit not at all.
	if counter("qindex_intern_misses_total") != 1 || counter("qindex_intern_hits_total") != 2 {
		t.Fatalf("intern after statements: hits=%d misses=%d, want 2/1", counter("qindex_intern_hits_total"), counter("qindex_intern_misses_total"))
	}

	// One-entry memo and interner: a second statement evicts the first.
	small := newResolver(ds, 1, 1)
	small.SetObserver(metrics.NewQIndexCollector(reg))
	other := dataset.RangePred{Attr: "age", Lo: 50, Hi: 60}
	small.CachedQuery("q1", func() (query.Query, error) { return query.Query{Set: small.Select(pred), Kind: query.Sum}, nil })
	small.CachedQuery("q2", func() (query.Query, error) { return query.Query{Set: small.Select(other), Kind: query.Sum}, nil })
	if counter("qindex_evictions_sql_total") != 1 || counter("qindex_evictions_intern_total") != 1 {
		t.Fatalf("evictions: sql=%d intern=%d, want 1/1", counter("qindex_evictions_sql_total"), counter("qindex_evictions_intern_total"))
	}
}

// TestPredKeyUnambiguous checks that predicates whose SQL-ish String()
// renderings coincide still resolve to their own sets: the empty
// conjunction ("" = everything) vs the empty disjunction ("" = nothing),
// and the flat "A AND B OR C" rendering shared by two different trees.
func TestPredKeyUnambiguous(t *testing.T) {
	ds := companyDS(30)
	r := NewResolver(ds)
	andEmpty := dataset.AndPred{}
	orEmpty := dataset.OrPred{}
	if got := r.Select(andEmpty); len(got) != ds.N() {
		t.Fatalf("empty AND = %v, want all %d rows", got, ds.N())
	}
	if got := r.Select(orEmpty); len(got) != 0 {
		t.Fatalf("empty OR = %v, want nothing", got)
	}
	a := dataset.EqPred{Attr: "dept", Val: "eng"}
	b := dataset.RangePred{Attr: "age", Lo: 30, Hi: 40}
	c := dataset.EqPred{Attr: "dept", Val: "sales"}
	t1 := dataset.AndPred{a, dataset.OrPred{b, c}} // a AND (b OR c)
	t2 := dataset.OrPred{dataset.AndPred{a, b}, c} // (a AND b) OR c
	if t1.String() != t2.String() {
		t.Fatalf("precondition: renderings differ (%q vs %q)", t1, t2)
	}
	got1, got2 := r.Select(t1), r.Select(t2)
	want1, want2 := ds.Select(t1), ds.Select(t2)
	if !setsEqual(got1, want1) || !setsEqual(got2, want2) {
		t.Fatalf("ambiguous renderings collided:\n t1 got %v want %v\n t2 got %v want %v",
			got1, want1, got2, want2)
	}
}

func TestResolverConcurrentUse(t *testing.T) {
	ds := companyDS(200)
	r := newResolver(ds, 8, 8)
	preds := []dataset.Predicate{
		dataset.RangePred{Attr: "age", Lo: 21, Hi: 30},
		dataset.RangePred{Attr: "age", Lo: 30, Hi: 40},
		dataset.EqPred{Attr: "dept", Val: "eng"},
		dataset.EqPred{Attr: "zip", Val: "94305"},
		dataset.AndPred{dataset.RangePred{Attr: "age", Lo: 25, Hi: 55}, dataset.EqPred{Attr: "dept", Val: "sales"}},
		dataset.TruePred{},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := preds[(i+w)%len(preds)]
				got := r.Select(p)
				want := ds.Select(p)
				if !setsEqual(got, want) {
					t.Errorf("concurrent resolve diverged for %s", p)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
