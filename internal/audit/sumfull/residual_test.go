package sumfull

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/field"
	"queryaudit/internal/linalg"
	"queryaudit/internal/query"
)

// pivots returns the leading column of every row.
func pivots(rows [][]field.Elem61) []int {
	var f field.GF61
	out := make([]int, len(rows))
	for i, row := range rows {
		out[i] = -1
		for j, x := range row {
			if !f.IsZero(x) {
				out[i] = j
				break
			}
		}
	}
	return out
}

// TestRecordCommitsDecidedResidual: over random sets and updates, an
// auditor that commits the residual Decide reduced keeps the basis that
// adding every recorded set with Add alone builds. Besides Decide then
// Record of one set, the history records a set after another set's
// Decide and after an update, both of which must reduce again.
func TestRecordCommitsDecidedResidual(t *testing.T) {
	const n = 24
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := New(n)
		ref := linalg.NewEchelon[field.Elem61](field.GF61{}, n)
		col := make([]int, n)
		for i := range col {
			col[i] = i
		}
		record := func(q query.Query) {
			support := make([]int, len(q.Set))
			for k, i := range q.Set {
				support[k] = col[i]
			}
			ref.Add(linalg.VectorFromSupport[field.Elem61](field.GF61{}, ref.NumCols(), support))
			a.Record(q, 0)
		}
		randomSet := func() query.Query {
			return query.New(query.Sum, rng.Perm(n)[:2+rng.Intn(n-2)]...)
		}
		carried := 0
		for step := 0; step < 60; step++ {
			q := randomSet()
			d, err := a.Decide(q)
			if err != nil {
				t.Fatal(err)
			}
			switch op := rng.Intn(6); {
			case op == 0: // another set decided in between
				if _, err := a.Decide(randomSet()); err != nil {
					t.Fatal(err)
				}
			case op == 1: // an update in between
				i := rng.Intn(n)
				a.NoteUpdate(i)
				ref.AppendColumns(1)
				col[i] = ref.NumCols() - 1
			}
			if d == audit.Answer {
				if a.pending.r != nil && a.pending.gen == a.ech.Gen() && reflect.DeepEqual(a.pending.set, q.Set) {
					carried++
				}
				record(q)
			}
			got, want := a.ech.Rows(), ref.Rows()
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(pivots(got), pivots(want)) {
				t.Fatalf("seed %d step %d: basis differs from Add alone", seed, step)
			}
			if err := a.ech.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if carried == 0 {
			t.Fatalf("seed %d: no Record committed a decided residual", seed)
		}
	}
}

// BenchmarkDecideRecord answers wide sums on a 1000-row table, the shape
// of a replayed churn journal.
func BenchmarkDecideRecord(b *testing.B) {
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	sets := make([]query.Query, 64)
	for i := range sets {
		sets[i] = query.New(query.Sum, rng.Perm(n)[:100+rng.Intn(500)]...)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := New(n)
		for _, q := range sets[:16] {
			if d, err := a.Decide(q); err == nil && d == audit.Answer {
				a.Record(q, 0)
			} else if err != nil {
				b.Fatal(fmt.Sprint(err))
			}
		}
	}
}
