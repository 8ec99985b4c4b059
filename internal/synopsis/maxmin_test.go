package synopsis

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"queryaudit/internal/query"
)

// TestMinMirror checks the min synopsis against the paper's reading:
// min{a,b,c}=2 then min{a,b}=2 yields [min{a,b}=2] and [min{c}>2].
func TestMinMirror(t *testing.T) {
	m := NewMin(3)
	if err := m.Add(query.NewSet(0, 1, 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(query.NewSet(0, 1), 2); err != nil {
		t.Fatal(err)
	}
	preds := m.Preds()
	if len(preds) != 2 {
		t.Fatalf("got %d predicates, want 2: %v", len(preds), preds)
	}
	for _, p := range preds {
		if p.Eq() {
			if !p.Set.Equal(query.NewSet(0, 1)) || p.Value != 2 {
				t.Errorf("eq predicate %v, want [min{0,1}=2]", p)
			}
		} else {
			if !p.Set.Equal(query.NewSet(2)) || p.Value != 2 {
				t.Errorf("strict predicate %v, want [min{2}>2]", p)
			}
		}
	}
	if v, strict, ok := m.LowerBound(2); !ok || !strict || v != 2 {
		t.Errorf("lower bound(2) = (%g,%v,%v), want (2,true,true)", v, strict, ok)
	}
}

// TestSharedValueNormalization exercises the paper's max/min same-value
// rule: [max(S1)=M] and [min(S2)=M] pin the unique common element.
func TestSharedValueNormalization(t *testing.T) {
	b := NewMaxMin(4, 0, 10)
	if err := b.AddMax(query.NewSet(0, 1, 2), 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMin(query.NewSet(2, 3), 5); err != nil {
		t.Fatal(err)
	}
	// Element 2 must now be pinned to 5.
	r := b.RangeOf(2)
	if !r.Pinned() || r.Lo != 5 {
		t.Fatalf("range of pinned element = %+v, want exactly 5", r)
	}
	// Elements 0,1 strictly below 5; element 3 strictly above.
	for _, i := range []int{0, 1} {
		r := b.RangeOf(i)
		if !(r.Hi == 5 && r.HiStrict) {
			t.Errorf("range of %d = %+v, want strict upper bound 5", i, r)
		}
	}
	r3 := b.RangeOf(3)
	if !(r3.Lo == 5 && r3.LoStrict) {
		t.Errorf("range of 3 = %+v, want strict lower bound 5", r3)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestSharedValueDisjointInconsistent: max and min answers equal but the
// query sets share nothing — impossible without duplicates.
func TestSharedValueDisjointInconsistent(t *testing.T) {
	b := NewMaxMin(4, 0, 10)
	if err := b.AddMax(query.NewSet(0, 1), 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMin(query.NewSet(2, 3), 5); err != ErrInconsistent {
		t.Fatalf("got %v, want ErrInconsistent", err)
	}
	// Rollback must leave the min side empty.
	if got := len(b.MinPreds()); got != 0 {
		t.Errorf("min predicates after rollback = %d, want 0", got)
	}
}

// TestSharedValueWideIntersectionInconsistent: a two-element overlap
// would force two elements to equal the shared value.
func TestSharedValueWideIntersectionInconsistent(t *testing.T) {
	b := NewMaxMin(4, 0, 10)
	if err := b.AddMax(query.NewSet(0, 1), 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMin(query.NewSet(0, 1, 2), 5); err != ErrInconsistent {
		t.Fatalf("got %v, want ErrInconsistent", err)
	}
}

// TestCrossRangeInconsistent: min forces values above what max allows.
func TestCrossRangeInconsistent(t *testing.T) {
	b := NewMaxMin(3, 0, 10)
	if err := b.AddMin(query.NewSet(0, 1), 7); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMax(query.NewSet(0, 1), 3); err != ErrInconsistent {
		t.Fatalf("got %v, want ErrInconsistent (all elements ≥ 7)", err)
	}
}

// TestPaperExampleRanges reproduces the Section 3.2 example:
// [max{a,b,c}=1] and [min{a,b}=0.2] give x_a,x_b ∈ [0.2,1], x_c ∈ [0,1].
func TestPaperExampleRanges(t *testing.T) {
	b := NewMaxMin(3, 0, 1)
	if err := b.AddMax(query.NewSet(0, 1, 2), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMin(query.NewSet(0, 1), 0.2); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		r := b.RangeOf(i)
		if r.Lo != 0.2 || r.Hi != 1 {
			t.Errorf("range of %d = %+v, want [0.2, 1]", i, r)
		}
	}
	r := b.RangeOf(2)
	if r.Lo != 0 || r.Hi != 1 {
		t.Errorf("range of 2 = %+v, want [0, 1]", r)
	}
}

// TestMaxMinTruthStream: feeding true answers from a random duplicate-
// free dataset must never be inconsistent, and derived ranges must
// contain the true values.
func TestMaxMinTruthStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		xs := distinctValues(rng, n)
		b := NewMaxMin(n, -1, 50)
		for step := 0; step < 14; step++ {
			q := randomSet(rng, n)
			var err error
			if rng.Intn(2) == 0 {
				err = b.AddMax(q, maxOf(xs, q))
			} else {
				err = b.AddMin(q, minOf(xs, q))
			}
			if err != nil {
				t.Fatalf("trial %d step %d: true answer rejected: %v\nmax: %v\nmin: %v", trial, step, err, b.max, b.min)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: invariants: %v", trial, step, err)
			}
			for i := 0; i < n; i++ {
				if r := b.RangeOf(i); !r.Contains(xs[i]) {
					t.Fatalf("trial %d step %d: range %+v of x%d excludes true value %g", trial, step, r, i, xs[i])
				}
			}
		}
	}
}

// TestRangesMatchRangeOf: the one-pass range table equals RangeOf
// element by element, bit for bit, through random folds and updates
// (which leave OpLe bounds), under finite and infinite ambient bounds,
// while reusing one table. The allocation-free equality listing orders
// predicates as MaxPreds and then MinPreds do, and counts the max side.
func TestRangesMatchRangeOf(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var table []Range
	var listed []Pred
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		xs := distinctValues(rng, n)
		b := NewMaxMin(n, -1, 50)
		if trial%2 == 1 {
			b = NewMaxMin(n, math.Inf(-1), math.Inf(1))
		}
		for step := 0; step < 14; step++ {
			q := randomSet(rng, n)
			switch rng.Intn(5) {
			case 0:
				b.Update(rng.Intn(n))
			case 1, 2:
				_ = b.AddMax(q, maxOf(xs, q))
			default:
				_ = b.AddMin(q, minOf(xs, q))
			}
			table = b.Ranges(table)
			if len(table) != n {
				t.Fatalf("trial %d step %d: table has %d ranges, want %d", trial, step, len(table), n)
			}
			for i := 0; i < n; i++ {
				if got, want := table[i], b.RangeOf(i); got != want {
					t.Fatalf("trial %d step %d: Ranges[%d] = %+v, RangeOf = %+v", trial, step, i, got, want)
				}
			}
			var nmax int
			listed, nmax = b.AppendEqPreds(listed[:0])
			want := eqOnly(b.MaxPreds())
			wantMax := len(want)
			want = append(want, eqOnly(b.MinPreds())...)
			if nmax != wantMax || len(listed) != len(want) || len(want) > 0 && !reflect.DeepEqual(listed, want) {
				t.Fatalf("trial %d step %d: listed predicates %v (%d max-side), want %v (%d)", trial, step, listed, nmax, want, wantMax)
			}
		}
	}
}

// eqOnly keeps the equality predicates of ps, in order.
func eqOnly(ps []Pred) []Pred {
	var out []Pred
	for _, p := range ps {
		if p.Eq() {
			out = append(out, p)
		}
	}
	return out
}

// TestTrialFoldAllocs bounds the allocations of one trial fold: [max(Q)
// = 50] with |Q| = 1199 into a synopsis holding [max({0..999}) = 100] at
// n = 3000. The fold detaches 999 elements from one predicate; detaching
// them one at a time rebuilt the predicate's set per element, about ten
// thousand allocations, where one filter of the predicate needs none.
// The count is deterministic, so the bound is safe in plain go test.
func TestTrialFoldAllocs(t *testing.T) {
	const n = 3000
	held := make([]int, 1000)
	for i := range held {
		held[i] = i
	}
	q := make([]int, 1199)
	for i := range q {
		q[i] = i + 1
	}
	b := NewMaxMin(n, math.Inf(-1), math.Inf(1))
	if err := b.AddMax(query.NewSet(held...), 100); err != nil {
		t.Fatal(err)
	}
	qs := query.NewSet(q...)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.With(query.Max, qs, 50); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("trial fold made %.0f allocations, want at most 200", allocs)
	}
	t.Logf("trial fold: %.0f allocations", allocs)
}
