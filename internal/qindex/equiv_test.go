package qindex

import (
	"math"
	"math/rand"
	"testing"

	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
)

// The index's correctness contract is equivalence with the naive row
// scan over the FULL predicate grammar — including the scan's corner
// cases (unknown attributes, cross-kind comparisons, NaN, inverted and
// unbounded ranges, empty results). These tests are the contract.

// genDataset builds a random dataset exercising every semantic corner:
// numeric duplicates, extreme magnitudes (±MaxFloat64, ±Inf is not
// generatable by predicates on data but MaxFloat64 is), NaN rows, and
// categorical skew.
func genDataset(rng *rand.Rand) *dataset.Dataset {
	n := rng.Intn(60)
	schema := dataset.Schema{
		{Name: "age", Kind: dataset.Numeric},
		{Name: "zip", Kind: dataset.Categorical},
		{Name: "dept", Kind: dataset.Categorical},
		{Name: "big", Kind: dataset.Numeric},
	}
	zips := []string{"94305", "94301", "", "95014"}
	depts := []string{"eng", "sales", "hr"}
	rows := make([]dataset.Record, n)
	for i := range rows {
		age := math.Floor(rng.Float64()*50) + 20 // coarse → duplicates
		big := (rng.Float64() - 0.5) * 2 * math.MaxFloat64
		switch rng.Intn(10) {
		case 0:
			big = math.MaxFloat64
		case 1:
			big = -math.MaxFloat64
		case 2:
			big = math.NaN()
		}
		rows[i] = dataset.Record{
			Public: []dataset.Value{
				dataset.NumValue(age),
				dataset.StrValue(zips[rng.Intn(len(zips))]),
				dataset.StrValue(depts[rng.Intn(len(depts))]),
				dataset.NumValue(big),
			},
			Sensitive: rng.Float64(),
		}
	}
	return dataset.New(schema, rows)
}

// genPred builds a random predicate tree over (mostly) the generated
// schema, deliberately including unknown attributes, string equality on
// numeric attributes, numeric ranges on categorical attributes,
// inverted bounds, NaN bounds, and unbounded (±Inf) bounds.
func genPred(rng *rand.Rand, depth int) dataset.Predicate {
	attrs := []string{"age", "zip", "dept", "big", "nope"}
	attr := attrs[rng.Intn(len(attrs))]
	choice := rng.Intn(6)
	if depth <= 0 && choice >= 4 {
		choice = rng.Intn(4)
	}
	switch choice {
	case 0:
		lo := math.Floor(rng.Float64()*60) + 15
		hi := lo + math.Floor(rng.Float64()*20) - 5 // sometimes inverted
		switch rng.Intn(12) {
		case 0:
			lo = math.Inf(-1)
		case 1:
			hi = math.Inf(1)
		case 2:
			lo, hi = math.Inf(-1), math.Inf(1)
		case 3:
			hi = math.NaN()
		case 4:
			lo = -math.MaxFloat64
			hi = math.MaxFloat64
		}
		return dataset.RangePred{Attr: attr, Lo: lo, Hi: hi}
	case 1:
		vals := []string{"94305", "94301", "", "eng", "sales", "absent"}
		return dataset.EqPred{Attr: attr, Val: vals[rng.Intn(len(vals))]}
	case 2:
		return dataset.TruePred{}
	case 3:
		// Point range (the parser's attr = <num> form).
		x := math.Floor(rng.Float64()*60) + 15
		return dataset.RangePred{Attr: attr, Lo: x, Hi: x}
	case 4:
		sub := make(dataset.AndPred, rng.Intn(4))
		for i := range sub {
			sub[i] = genPred(rng, depth-1)
		}
		return sub
	default:
		sub := make(dataset.OrPred, rng.Intn(4))
		for i := range sub {
			sub[i] = genPred(rng, depth-1)
		}
		return sub
	}
}

func setsEqual(a, b query.Set) bool {
	if len(a) != len(b) {
		return false
	}
	return a.Equal(b)
}

// TestIndexEquivalentToScan is the core property test: for random
// datasets and random predicate trees, indexed resolution equals the
// naive scan exactly.
func TestIndexEquivalentToScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		ds := genDataset(rng)
		ix := Build(ds)
		for p := 0; p < 60; p++ {
			pred := genPred(rng, 2)
			want := ds.Select(pred)
			got := ix.Select(pred)
			if !setsEqual(want, got) {
				t.Fatalf("trial %d: pred %s on %d rows:\n  scan  %v\n  index %v",
					trial, pred, ds.N(), want, got)
			}
		}
	}
}

// TestResolverEquivalentAndStable checks the memoized path: same
// results as the scan, and repeated resolution returns the pointer-
// identical interned set with no new allocation.
func TestResolverEquivalentAndStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		ds := genDataset(rng)
		r := NewResolver(ds)
		for p := 0; p < 40; p++ {
			pred := genPred(rng, 2)
			want := ds.Select(pred)
			got1 := r.Select(pred)
			got2 := r.Select(pred)
			if !setsEqual(want, got1) {
				t.Fatalf("trial %d: pred %s: scan %v resolver %v", trial, pred, want, got1)
			}
			if len(got1) > 0 && &got1[0] != &got2[0] {
				t.Fatalf("trial %d: pred %s: repeated resolution not pointer-stable", trial, pred)
			}
		}
	}
}

// TestUnknownPredicateFallsBack checks that predicate types the index
// does not recognize are served by the naive scan, not dropped.
func TestUnknownPredicateFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := genDataset(rng)
	for ds.N() == 0 {
		ds = genDataset(rng)
	}
	ix := Build(ds)
	pred := oddPred{}
	if got, want := ix.Select(pred), ds.Select(pred); !setsEqual(got, want) {
		t.Fatalf("fallback: got %v want %v", got, want)
	}
	// Inside a conjunction the whole tree must fall back.
	and := dataset.AndPred{dataset.TruePred{}, oddPred{}}
	if got, want := ix.Select(and), ds.Select(and); !setsEqual(got, want) {
		t.Fatalf("fallback in AND: got %v want %v", got, want)
	}
}

// oddPred matches every third row — a predicate shape qindex cannot
// index (it is not defined over public attributes).
type oddPred struct{}

func (oddPred) Match(_ *dataset.Dataset, i int) bool { return i%3 == 0 }
func (oddPred) String() string                       { return "ODD" }

// FuzzRangeEquivalence drives the numeric range path with arbitrary
// float bounds (including NaN, ±Inf, denormals) against a fixed dataset.
func FuzzRangeEquivalence(f *testing.F) {
	f.Add(20.0, 40.0)
	f.Add(math.Inf(-1), math.Inf(1))
	f.Add(math.NaN(), 10.0)
	f.Add(40.0, 20.0)
	f.Add(1e308, math.MaxFloat64)
	rng := rand.New(rand.NewSource(19))
	ds := genDataset(rng)
	for ds.N() < 10 {
		ds = genDataset(rng)
	}
	ix := Build(ds)
	f.Fuzz(func(t *testing.T, lo, hi float64) {
		for _, attr := range []string{"age", "big", "zip", "nope"} {
			pred := dataset.RangePred{Attr: attr, Lo: lo, Hi: hi}
			want := ds.Select(pred)
			got := ix.Select(pred)
			if !setsEqual(want, got) {
				t.Fatalf("range [%v,%v] on %s: scan %v index %v", lo, hi, attr, want, got)
			}
		}
	})
}

// FuzzEqEquivalence drives string equality with arbitrary values across
// attributes of both kinds.
func FuzzEqEquivalence(f *testing.F) {
	f.Add("eng", "dept")
	f.Add("", "age")
	f.Add("94305", "zip")
	rng := rand.New(rand.NewSource(23))
	ds := genDataset(rng)
	for ds.N() < 10 {
		ds = genDataset(rng)
	}
	ix := Build(ds)
	f.Fuzz(func(t *testing.T, val, attr string) {
		pred := dataset.EqPred{Attr: attr, Val: val}
		want := ds.Select(pred)
		got := ix.Select(pred)
		if !setsEqual(want, got) {
			t.Fatalf("eq %q on %q: scan %v index %v", val, attr, want, got)
		}
	})
}

// TestEmptyDataset covers the n = 0 boundary of every path.
func TestEmptyDataset(t *testing.T) {
	ds := dataset.New(dataset.Schema{{Name: "age", Kind: dataset.Numeric}}, nil)
	r := NewResolver(ds)
	for _, pred := range []dataset.Predicate{
		dataset.TruePred{},
		dataset.RangePred{Attr: "age", Lo: 0, Hi: 100},
		dataset.EqPred{Attr: "age", Val: ""},
		dataset.AndPred{},
		dataset.OrPred{},
	} {
		if got := r.Select(pred); len(got) != 0 {
			t.Fatalf("pred %s on empty dataset: got %v", pred, got)
		}
	}
}
