package maxminprob

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// TestDecideLeavesSharedSynopsis runs Decide at two and four workers on
// a private scheduler, so samples run concurrently on lanes of their
// own, over a seeded stream of wide max and min queries until twelve are
// answered, at the prob-300 shape of TestSampleAllocs. Every sample
// folds into its lane's copy of the synopsis, where the fold stays open
// while the lane's samples draw the same answer; the shared a.syn must
// read byte-identical before and after each Decide, and the decisions
// must equal those at one worker, however the samples fell to the
// lanes. Under the race detector it also guards that no sample writes
// shared state.
func TestDecideLeavesSharedSynopsis(t *testing.T) {
	sched := mcpar.NewScheduler(4)
	defer sched.Close()
	run := func(workers int) []audit.Decision {
		const n = 300
		rng := randx.New(12)
		xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
		a, err := New(n, Params{
			Game: mcpar.Game{
				Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12,
				Workers: workers, Seed: 6,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		a.ConfigureMC(0, nil, sched)
		var ds []audit.Decision
		for answered := 0; answered < 12 && len(ds) < 200; {
			kind := query.Max
			if len(ds)%2 == 1 {
				kind = query.Min
			}
			q := query.New(kind, randx.SubsetSizeBetween(rng, n, 60, n)...)
			before := synopsisJSON(t, a)
			d, err := a.Decide(q)
			if err != nil {
				t.Fatalf("workers=%d decision %d: %v", workers, len(ds), err)
			}
			if after := synopsisJSON(t, a); !bytes.Equal(after, before) {
				t.Fatalf("workers=%d decision %d: Decide changed the shared synopsis", workers, len(ds))
			}
			ds = append(ds, d)
			if d == audit.Answer {
				a.Record(q, q.Eval(xs))
				answered++
			}
		}
		if len(ds) == 200 {
			t.Fatalf("workers=%d: fewer than 12 answers in 200 decisions", workers)
		}
		t.Logf("workers=%d: %d decisions", workers, len(ds))
		return ds
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); !slices.Equal(got, want) {
			t.Fatalf("decisions at %d workers %v, want those at 1 worker %v", workers, got, want)
		}
	}
}

func synopsisJSON(t *testing.T, a *Auditor) []byte {
	t.Helper()
	raw, err := json.Marshal(a.syn.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
