package synopsis

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"queryaudit/internal/query"
)

// foldScenario is one seeded random history against a combined
// synopsis: a duplicate-free dataset, either on [0,1] with the synopsis
// bounded to [0,1] or on an integer grid with ±Inf bounds.
type foldScenario struct {
	rng     *rand.Rand
	n       int
	bounded bool
	xs      []float64
	used    map[float64]bool
	b       *MaxMin
}

func newFoldScenario(seed int64) *foldScenario {
	rng := rand.New(rand.NewSource(seed))
	s := &foldScenario{rng: rng, n: 4 + rng.Intn(37), bounded: seed%2 == 0, used: make(map[float64]bool)}
	s.xs = make([]float64, s.n)
	for i := range s.xs {
		s.xs[i] = s.freshValue()
		s.used[s.xs[i]] = true
	}
	if s.bounded {
		s.b = NewMaxMin(s.n, 0, 1)
	} else {
		s.b = NewMaxMin(s.n, math.Inf(-1), math.Inf(1))
	}
	return s
}

// freshValue draws a value no element holds.
func (s *foldScenario) freshValue() float64 {
	for {
		var v float64
		if s.bounded {
			v = float64(s.rng.Intn(1000)) / 999
		} else {
			v = float64(s.rng.Intn(8 * s.n))
		}
		if !s.used[v] {
			return v
		}
	}
}

// set draws a query set: a random subset, or a window of 1–4 rows that
// drives equality predicates down to singletons.
func (s *foldScenario) set() query.Set {
	if s.rng.Intn(4) > 0 {
		return randomSet(s.rng, s.n)
	}
	lo, w := s.rng.Intn(s.n), 1+s.rng.Intn(4)
	idx := make([]int, 0, w)
	for k := 0; k < w; k++ {
		idx = append(idx, (lo+k)%s.n)
	}
	return query.NewSet(idx...)
}

// fold draws a fold: its kind, set and an answer that is the truth
// (40%), a bound the synopsis already holds for an element of the set on
// either side (25%), a value just past an element's bound on the other
// side (15%), or any value of the data range (20%). Bounds from the
// other side are what make a fold pass Add and fail the combined
// consistency check.
func (s *foldScenario) fold() (query.Kind, query.Set, float64) {
	kind := query.Max
	if s.rng.Intn(2) == 0 {
		kind = query.Min
	}
	q := s.set()
	truth := query.Query{Kind: kind, Set: q}.Eval(s.xs)
	r := s.rng.Float64()
	switch {
	case r < 0.4:
		return kind, q, truth
	case r < 0.55:
		step := 1.0
		if s.bounded {
			step = 1.0 / 999
		}
		for _, i := range q {
			if v, ok := s.b.MinValueOf(i); kind == query.Max && ok {
				return kind, q, v - step
			}
			if v, ok := s.b.MaxValueOf(i); kind == query.Min && ok {
				return kind, q, v + step
			}
		}
		return kind, q, truth
	case r < 0.8:
		for _, i := range q {
			v, ok := s.b.MaxValueOf(i)
			if s.rng.Intn(2) == 0 {
				v, ok = s.b.MinValueOf(i)
			}
			if ok && s.rng.Intn(2) == 0 {
				return kind, q, v
			}
		}
		return kind, q, truth
	default:
		return kind, q, s.freshValue()
	}
}

// update moves one element to a fresh value and tells the synopsis.
func (s *foldScenario) update() {
	i := s.rng.Intn(s.n)
	v := s.freshValue()
	delete(s.used, s.xs[i])
	s.xs[i], s.used[v] = v, true
	s.b.Update(i)
}

// TestFoldRollbackRestores drives seeded random sequences of trial folds
// of both kinds, commits of true answers and updates, on bounded and
// unbounded synopses. After every Rollback, and after every rejected
// fold, the Snapshot bytes must equal those before the fold and the
// structural invariants must hold; after every Commit the synopsis must
// pass the full consistency check.
func TestFoldRollbackRestores(t *testing.T) {
	var trials, rolled int
	for seed := int64(1); seed <= 40; seed++ {
		s := newFoldScenario(seed)
		for step := 0; step < 150; step++ {
			switch r := s.rng.Intn(10); {
			case r == 0:
				s.update()
				continue
			case r < 3:
				kind := query.Max
				if r == 2 {
					kind = query.Min
				}
				q := s.set()
				if err := s.b.Fold(kind, q, query.Query{Kind: kind, Set: q}.Eval(s.xs)); err != nil {
					t.Fatalf("seed %d step %d: true answer rejected: %v", seed, step, err)
				}
				s.b.Commit()
				if err := s.b.checkConsistent(); err != nil {
					t.Fatalf("seed %d step %d: committed synopsis inconsistent", seed, step)
				}
			default:
				before := foldSnapshot(t, s.b)
				kind, q, a := s.fold()
				trials++
				if s.b.Fold(kind, q, a) == nil {
					if err := s.b.CheckInvariants(); err != nil {
						t.Fatalf("seed %d step %d: open fold: %v", seed, step, err)
					}
					s.b.Rollback()
					rolled++
				}
				if got := foldSnapshot(t, s.b); !bytes.Equal(got, before) {
					t.Fatalf("seed %d step %d: trial %v(%v)=%g changed the snapshot\n got %s\nwant %s", seed, step, kind, q, a, got, before)
				}
			}
			if err := s.b.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
	if rolled < trials/10 || trials-rolled < trials/10 {
		t.Fatalf("%d of %d trial folds were consistent, want both outcomes often", rolled, trials)
	}
}

// TestMaxFoldRollbackRestores is TestFoldRollbackRestores for a bare
// Max synopsis, whose Fold the probabilistic max auditor's samples use.
func TestMaxFoldRollbackRestores(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7)
		xs := distinctValues(rng, n)
		m := NewMax(n)
		for step := 0; step < 150; step++ {
			q := randomSet(rng, n)
			switch rng.Intn(6) {
			case 0:
				m.Update(rng.Intn(n))
			case 1:
				if err := m.Fold(q, maxOf(xs, q)); err != nil {
					t.Fatalf("seed %d step %d: true answer rejected: %v", seed, step, err)
				}
				m.Commit()
			default:
				a := maxOf(xs, q)
				if rng.Intn(2) == 0 {
					a = float64(rng.Intn(50))
				}
				before := m.Snapshot()
				if m.Fold(q, a) == nil {
					m.Rollback()
				}
				if got := m.Snapshot(); !snapshotsEqual(t, got, before) {
					t.Fatalf("seed %d step %d: trial max(%v)=%g changed the snapshot", seed, step, q, a)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

func snapshotsEqual(t *testing.T, a, b Snapshot) bool {
	t.Helper()
	ra, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ra, rb)
}

// TestTouchedCheckMatchesFull is the differential test of the fold's
// consistency check: on every trial fold that gets past Add and the
// normalization, checkTouched must give checkConsistent's verdict.
func TestTouchedCheckMatchesFull(t *testing.T) {
	var checked, consistent int
	for seed := int64(1); seed <= 40; seed++ {
		s := newFoldScenario(seed)
		for step := 0; step < 300; step++ {
			if s.rng.Intn(12) == 0 {
				s.update()
				continue
			}
			kind, q, a := s.fold()
			b := s.b
			b.max.begin()
			b.min.inner.begin()
			if b.fold(kind, q, a) == nil {
				touched, full := b.checkTouched(), b.checkConsistent()
				if (touched == nil) != (full == nil) {
					t.Fatalf("seed %d step %d: %v(%v)=%g: touched-only check %v, full check %v", seed, step, kind, q, a, touched, full)
				}
				checked++
				if full == nil {
					consistent++
				}
			}
			b.Rollback()
			if s.rng.Intn(3) == 0 {
				// Grow the history with a true answer.
				kind, q := query.Max, s.set()
				if s.rng.Intn(2) == 0 {
					kind = query.Min
				}
				if err := b.Fold(kind, q, query.Query{Kind: kind, Set: q}.Eval(s.xs)); err != nil {
					t.Fatalf("seed %d step %d: true answer rejected: %v", seed, step, err)
				}
				b.Commit()
			}
		}
	}
	if consistent < checked/10 || checked-consistent < checked/10 {
		t.Fatalf("%d of %d checked folds were consistent, want both verdicts often", consistent, checked)
	}
	t.Logf("%d folds checked, %d consistent", checked, consistent)
}
