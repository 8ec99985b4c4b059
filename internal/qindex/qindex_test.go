package qindex

import (
	"errors"
	"sync"
	"testing"
	"time"

	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

func companyDS(n int) *dataset.Dataset {
	return dataset.GenerateCompany(randx.New(1), dataset.DefaultCompanyConfig(n))
}

func TestInternerCanonicalizes(t *testing.T) {
	in := NewInterner(0)
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
	st := in.Stats()
	if st.Hits != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 entries", st)
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
	in := NewInterner(3)
	for i := 0; i < 10; i++ {
		in.Intern(query.NewSet(i))
	}
	st := in.Stats()
	if st.Size != 3 {
		t.Fatalf("size = %d, want 3 (bounded)", st.Size)
	}
	if st.Evictions != 7 {
		t.Fatalf("evictions = %d, want 7", st.Evictions)
	}
	// An evicted set re-interns cleanly (fresh canonical instance).
	if s := in.Intern(query.NewSet(0)); len(s) != 1 || s[0] != 0 {
		t.Fatalf("re-intern after eviction: %v", s)
	}
}

func TestLRUBasics(t *testing.T) {
	c := newLRU[int](2)
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

// countingObserver records callback totals for the wiring test.
type countingObserver struct {
	mu        sync.Mutex
	hits      map[string]int
	misses    map[string]int
	internHit int
	internNew int
	evict     map[string]int
	builds    int
	buildRows int
}

func newCountingObserver() *countingObserver {
	return &countingObserver{hits: map[string]int{}, misses: map[string]int{}, evict: map[string]int{}}
}

func (o *countingObserver) ObserveResolve(layer string, hit bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if hit {
		o.hits[layer]++
	} else {
		o.misses[layer]++
	}
}

func (o *countingObserver) ObserveIntern(hit bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if hit {
		o.internHit++
	} else {
		o.internNew++
	}
}

func (o *countingObserver) ObserveEviction(layer string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.evict[layer]++
}

func (o *countingObserver) ObserveBuild(rows int, _ time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.builds++
	o.buildRows += rows
}

func TestObserverSeesResolveEvents(t *testing.T) {
	r := NewResolver(companyDS(80))
	obs := newCountingObserver()
	r.SetObserver(obs)
	if obs.builds != 1 || obs.buildRows != 80 {
		t.Fatalf("deferred build report: builds=%d rows=%d", obs.builds, obs.buildRows)
	}
	pred := dataset.RangePred{Attr: "age", Lo: 25, Hi: 45}
	r.Select(pred)
	r.Select(pred)
	if obs.misses["pred"] != 1 || obs.hits["pred"] != 1 {
		t.Fatalf("pred layer: hits=%d misses=%d, want 1/1", obs.hits["pred"], obs.misses["pred"])
	}
	build := func() (query.Query, error) {
		return query.Query{Set: r.Select(pred), Kind: query.Sum}, nil
	}
	r.CachedQuery("q1", build)
	r.CachedQuery("q1", build)
	if obs.misses["sql"] != 1 || obs.hits["sql"] != 1 {
		t.Fatalf("sql layer: hits=%d misses=%d, want 1/1", obs.hits["sql"], obs.misses["sql"])
	}
	if obs.internHit == 0 {
		t.Fatal("expected at least one intern hit (sql path reuses the pred set)")
	}
}

// TestPredKeyUnambiguous guards against cache-key collisions between
// predicates whose SQL-ish String() renderings coincide: the empty
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
		t.Fatalf("ambiguous renderings collided in the memo:\n t1 got %v want %v\n t2 got %v want %v",
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
