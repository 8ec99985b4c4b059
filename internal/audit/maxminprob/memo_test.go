package maxminprob

import (
	"math"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// TestTrialMemoMatchesFreshScratch is the differential test of the
// per-lane trial-state memo. It plays a seeded prob-300-shaped game —
// n=300, the auditserver's prob parameters, the default budget, and
// query sets cycling through wide sets of 60–300 rows, windows of 60–149
// rows and small sets of 5–40 rows — and, for every query that passes
// the Lemma 2 pre-check, runs the decision's outer samples through
// unsafeSample twice on identically seeded streams: once on one warm
// lane scratch, as Decide does, and once on a fresh scratch per sample,
// which can never reuse a trial state. Every verdict must agree. The run
// must also have hit the memo (a sample drawing the answer already
// folded), missed it (a new answer) and answered a hit from the cached
// exact-path verdict, each at least once.
func TestTrialMemoMatchesFreshScratch(t *testing.T) {
	const (
		n     = 300
		steps = 40
	)
	rng := randx.New(21)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	a, err := New(n, Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Workers: 1, Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	newScratch := func() *decideScratch {
		return &decideScratch{xs: make([]float64, n), fixed: make([]bool, n), syn: a.syn.Clone()}
	}
	var hits, misses, exactHits, samples int
	for step := 0; step < steps; step++ {
		kind := query.Max
		if step%2 == 1 {
			kind = query.Min
		}
		var set []int
		switch step % 3 {
		case 0:
			set = randx.SubsetSizeBetween(rng, n, 60, n)
		case 1:
			set = randx.Range(rng, n, 60+rng.Intn(90))
		default:
			set = randx.SubsetSizeBetween(rng, n, 5, 40)
		}
		q := query.New(kind, set...)
		if a.inferenceTractableForAllAnswers(q) {
			g, err := coloring.Build(a.syn)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			init, err := g.InitialColoring()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			seed := randx.DeriveSeed(99, uint64(step))
			warm := newScratch()
			for i := 0; i < a.params.outer(); i++ {
				loaded, answer, cached := warm.loaded, warm.answer, warm.post.verdict != unknown
				got := a.unsafeSample(q, g, init, randx.NewSplitMix(seed, uint64(i)), warm)
				want := a.unsafeSample(q, g, init, randx.NewSplitMix(seed, uint64(i)), newScratch())
				if got != want {
					t.Fatalf("step %d sample %d: warm lane says unsafe=%v, fresh scratch %v", step, i, got, want)
				}
				if math.Float64bits(q.Eval(warm.xs)) != warm.answer {
					t.Fatalf("step %d sample %d: lane holds the trial state of another answer", step, i)
				}
				samples++
				switch {
				case !loaded || answer != warm.answer:
					misses++
				case cached:
					hits++
					exactHits++
				default:
					hits++
				}
			}
		}
		d, err := a.Decide(q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if d == audit.Answer {
			a.Record(q, q.Eval(xs))
		}
	}
	t.Logf("%d samples: %d memo hits (%d from the exact-path verdict), %d misses", samples, hits, exactHits, misses)
	if hits == 0 || misses == 0 || exactHits == 0 {
		t.Fatalf("%d samples: %d memo hits, %d misses, %d exact-path verdict hits; want at least one of each",
			samples, hits, misses, exactHits)
	}
}
