// Benchmark harness: one testing.B target per figure and per
// quantitative claim of the paper. Each bench regenerates its experiment
// at a reduced-but-faithful scale and reports the headline shape numbers
// as custom metrics, so `go test -bench=. -benchmem` doubles as a
// regression check on the reproduction (see EXPERIMENTS.md for the
// paper-scale runs).
package main

import (
	"fmt"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/boolrange"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/maxprob"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/coloring"
	"queryaudit/internal/experiments"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
	"queryaudit/internal/workload"
)

// BenchmarkFig1TimeToFirstDenialSum regenerates Figure 1: mean number of
// random sum queries answered before the first denial, per database
// size. Metric tden/n is the paper's headline ("almost exactly equal to
// the size of the database" ⇒ ≈ 1.0).
func BenchmarkFig1TimeToFirstDenialSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(experiments.Fig1Config{
			Sizes: []int{100, 200, 400}, Trials: 5, Seed: int64(i + 1),
		})
		last := rows[len(rows)-1]
		b.ReportMetric(last.MeanTDen/float64(last.N), "tden/n")
	}
}

// BenchmarkFig2DenialProbabilitySum regenerates Figure 2's three plots.
// Metrics: the long-run denial probability of each plot — the paper's
// shape is plot1 → 1.0, plot2 and plot3 strictly below it.
func BenchmarkFig2DenialProbabilitySum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig2Config{
			N: 150, Queries: 400, Trials: 5,
			UpdatePeriod: 10, RangeMin: 20, RangeMax: 40,
			Stride: 20, Seed: int64(i + 1),
		}
		curves := experiments.Fig2(cfg)
		b.ReportMetric(curves[0].Tail(0.3), "p1-tail")
		b.ReportMetric(curves[1].Tail(0.3), "p2-tail")
		b.ReportMetric(curves[2].Tail(0.3), "p3-tail")
	}
}

// BenchmarkFig3DenialProbabilityMax regenerates Figure 3: the denial
// probability of the classical max auditor rises to a plateau strictly
// below 1 — ≈ 0.63 for the paper's duplicates-allowed [21] auditor
// (paper: ≈ 0.68) and higher for this paper's more conservative
// no-duplicates auditor.
func BenchmarkFig3DenialProbabilityMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig3Config{
			N: 150, Queries: 500, Trials: 4, Stride: 25, Seed: int64(i + 1),
			AllowDuplicates: true,
		}
		b.ReportMetric(experiments.Fig3(cfg).Tail(0.3), "plateau-dup")
		cfg.AllowDuplicates = false
		b.ReportMetric(experiments.Fig3(cfg).Tail(0.3), "plateau-nodup")
	}
}

// BenchmarkThm67UtilityBounds checks n/4 ≤ E[T_denial] ≤ n + lg n + 1.
// Metric holds=1.0 means every size satisfied both bounds.
func BenchmarkThm67UtilityBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.UtilityBounds(experiments.Fig1Config{
			Sizes: []int{100, 200, 400}, Trials: 5, Seed: int64(i + 1),
		})
		ok := 0
		for _, r := range rows {
			if r.Holds {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(len(rows)), "holds")
	}
}

// BenchmarkDJLBaselineUtility reproduces the Section 2.1 bound: the DJL
// auditor answers ≈ c disjoint queries (k = n/c, r = 1) and essentially
// none under random workloads.
func BenchmarkDJLBaselineUtility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DJLBaseline(300, 5, 3, int64(i+1))
		b.ReportMetric(float64(r.AnsweredDisjoint), "disjoint")
		b.ReportMetric(float64(r.AnsweredRandom), "random")
	}
}

// BenchmarkAttackDenialLeakage reproduces the Section 2.2 motivating
// example at scale: fraction of values the attacker extracts from the
// naive auditor vs from the simulatable one.
func BenchmarkAttackDenialLeakage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AttackDemo(50, 4000, int64(i+1))
		b.ReportMetric(r.NaiveCorrectFrac, "naive-frac")
		b.ReportMetric(r.SimulatableCorrectFrac, "sim-frac")
	}
}

// BenchmarkMaxProbAuditor runs the Section 3.1 (λ, δ, γ, T) game: the
// empirical breach fraction must stay within δ while utility remains
// positive.
func BenchmarkMaxProbAuditor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultMaxProb()
		cfg.Trials, cfg.Rounds, cfg.Seed = 6, 8, int64(i+1)
		r := experiments.MaxProb(cfg)
		b.ReportMetric(r.AnsweredFrac, "answered")
		b.ReportMetric(r.BreachFrac, "breach")
	}
}

// BenchmarkMaxMinFullAuditor measures the Section 4 auditor's denial
// curve (no figure in the paper; recorded for completeness).
func BenchmarkMaxMinFullAuditor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.MaxMinFull(experiments.MaxMinFullConfig{
			N: 100, Queries: 150, Trials: 3, Stride: 10, Seed: int64(i + 1),
		})
		b.ReportMetric(c.Tail(0.3), "plateau")
	}
}

// BenchmarkMaxMinProbAuditor exercises the Section 3.2 MCMC auditor
// end-to-end.
func BenchmarkMaxMinProbAuditor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultMaxMinProb()
		cfg.N, cfg.Trials, cfg.Rounds, cfg.Seed = 24, 2, 4, int64(i+1)
		r := experiments.MaxMinProb(cfg)
		b.ReportMetric(r.AnsweredFrac, "answered")
	}
}

// BenchmarkSimulatabilityPrice quantifies Section 7's open question:
// the fraction of the simulatable max auditor's denials whose true
// answer would have been safe to release.
func BenchmarkSimulatabilityPrice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SimulatabilityPrice(experiments.SimulatabilityPriceConfig{
			N: 100, Queries: 250, Trials: 4, Seed: int64(i + 1),
		})
		b.ReportMetric(r.ConservativeFrac(), "conservative")
	}
}

// BenchmarkCollusion contrasts per-user auditing (breaches under
// collusion) with the pooled auditing the paper assumes.
func BenchmarkCollusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Collusion(experiments.CollusionConfig{
			N: 60, Queries: 80, Users: 2, Trials: 10, Seed: int64(i + 1),
		})
		b.ReportMetric(float64(r.SeparateBreaches)/float64(r.Trials), "sep-breach")
		b.ReportMetric(float64(r.PooledBreaches)/float64(r.Trials), "pool-breach")
	}
}

// BenchmarkCrossAggregate quantifies Section 4's motivation: split
// max/min auditors leak under equal-answer collisions; the joint auditor
// never does.
func BenchmarkCrossAggregate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.CrossAggregate(experiments.CrossAggregateConfig{
			N: 30, Queries: 50, Trials: 15, Seed: int64(i + 1),
		})
		b.ReportMetric(float64(r.SplitBreaches)/float64(r.Trials), "split-breach")
		b.ReportMetric(float64(r.JointBreaches)/float64(r.Trials), "joint-breach")
	}
}

// BenchmarkColoringMixing measures the coloring chain's per-step cost
// and the O(k log k) mixing budget of Lemma 3.
func BenchmarkColoringMixing(b *testing.B) {
	rng := randx.New(1)
	syn := synopsis.NewMaxMin(60, 0, 1)
	xs := randx.DuplicateFreeDataset(rng, 60, 0, 1)
	// Build a bag of interleaved max/min queries to create a non-trivial
	// graph.
	for t := 0; t < 10; t++ {
		set := query.NewSet(randx.SubsetSizeBetween(rng, 60, 20, 50)...)
		q := query.Query{Set: set, Kind: query.Max}
		if t%2 == 1 {
			q.Kind = query.Min
		}
		ans := q.Eval(xs)
		var err error
		if q.Kind == query.Max {
			err = syn.AddMax(set, ans)
		} else {
			err = syn.AddMin(set, ans)
		}
		if err != nil {
			b.Fatalf("building synopsis: %v", err)
		}
	}
	g, err := coloring.Build(syn)
	if err != nil {
		b.Fatal(err)
	}
	s, err := coloring.NewSampler(g, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Mix(3)
	}
	b.ReportMetric(float64(coloring.MixSteps(g.K(), 3)), "steps/mix")
}

// BenchmarkProbSumVsMax quantifies the paper's Section 3.1 remark that
// its probabilistic max auditor "is decidedly more efficient than the
// probabilistic sum auditor of [21] which needs to estimate volumes of
// convex polytopes": one decision each, identical (λ, γ, δ, T) and
// database size.
func BenchmarkProbSumVsMax(b *testing.B) {
	const n = 32
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	b.Run("max-closed-form", func(b *testing.B) {
		a, err := maxprob.New(n, maxprob.Params{
			Game: mcpar.Game{
				Lambda: 0.6, Gamma: 4, Delta: 0.2, T: 10, Seed: 1,
			},
			Samples: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := query.New(query.Max, set...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Decide(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum-polytope-sampling", func(b *testing.B) {
		a, err := sumprob.New(n, sumprob.Params{
			Game: mcpar.Game{
				Lambda: 0.6, Gamma: 4, Delta: 0.2, T: 10, Seed: 1,
			},
			OuterSamples: 8, InnerSamples: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := query.New(query.Sum, set...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Decide(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSumAuditorDecide measures one sum-auditing decision at n=500
// with a saturated history — the inner loop of Figures 1–2.
func BenchmarkSumAuditorDecide(b *testing.B) {
	const n = 500
	rng := randx.New(2)
	a := sumfull.New(n)
	gen := workload.UniformRandom{N: n, Kind: query.Sum, Rng: rng}
	for t := 0; t < n/2; t++ {
		q := gen.Next()
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, 0)
		}
	}
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxAuditorDecide measures one max-auditing decision at n=500
// with a saturated history — the inner loop of Figure 3.
func BenchmarkMaxAuditorDecide(b *testing.B) {
	const n = 500
	rng := randx.New(3)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	a := maxfull.New(n)
	gen := workload.UniformRandom{N: n, Kind: query.Max, Rng: rng}
	for t := 0; t < 2*n; t++ {
		q := gen.Next()
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, q.Eval(xs))
		}
	}
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxMinFullWideDecide measures one Section 4 max∧min decision
// at the wide-3k table and set sizes: n=3000, query sets of 800–1200
// rows, and a warmed history of about 40 answered max and min queries.
// Every candidate answer is a trial fold of a ~1000-row set into the
// synopsis, so this is the bench that shows the fold's cost. Its history
// is saturated (40 wide answers cover the table many times over); a
// wide-3k analyst's history is only one benchmark round long.
func BenchmarkMaxMinFullWideDecide(b *testing.B) {
	const n = 3000
	rng := randx.New(11)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	wide := func(i int) query.Query {
		kind := query.Max
		if i%2 == 1 {
			kind = query.Min
		}
		return query.New(kind, randx.SubsetSizeBetween(rng, n, 800, 1200)...)
	}
	a := maxminfull.New(n)
	for t, answered := 0, 0; answered < 40 && t < 400; t++ {
		q := wide(t)
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, q.Eval(xs))
			answered++
		}
	}
	qs := make([]query.Query, 32)
	for i := range qs {
		qs[i] = wide(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxMinFullNarrowDecide measures one Section 4 max∧min
// decision at the narrow-300 shape: n=300, query sets of 2–3 rows, and a
// history of about 60 answered max and min queries, as narrow-300 builds
// per analyst per round. Each trial fold moves a few rows, so the
// per-trial cost of the fold machinery itself (undo state, consistency
// check) dominates rather than the fold.
func BenchmarkMaxMinFullNarrowDecide(b *testing.B) {
	const n = 300
	rng := randx.New(13)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	narrow := func(i int) query.Query {
		kind := query.Max
		if i%2 == 1 {
			kind = query.Min
		}
		return query.New(kind, randx.SubsetSizeBetween(rng, n, 2, 3)...)
	}
	a := maxminfull.New(n)
	for t, answered := 0, 0; answered < 60 && t < 2000; t++ {
		q := narrow(t)
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, q.Eval(xs))
			answered++
		}
	}
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = narrow(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxProbDecide measures one probabilistic (Section 3.1)
// decision including its Monte Carlo sampling, per worker-pool size.
// Decisions are bit-identical across the sub-benchmarks (same seed, same
// counter-based streams); only the wall clock may differ.
func BenchmarkMaxProbDecide(b *testing.B) {
	const n = 100
	rng := randx.New(5)
	set := query.New(query.Max, randx.SubsetSizeBetween(rng, n, 40, 90)...)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a, err := maxprob.New(n, maxprob.Params{
				Game: mcpar.Game{
					Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 50,
					Workers: workers, Seed: 4,
				},
				Samples: 512,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Decide(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxMinProbDecide measures one Section 3.2 decision (Lemma 2
// pre-check plus nested MCMC estimation), per worker-pool size.
func BenchmarkMaxMinProbDecide(b *testing.B) {
	const n = 30
	rng := randx.New(7)
	q := query.New(query.Max, randx.SubsetSizeBetween(rng, n, 15, 30)...)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a, err := maxminprob.New(n, maxminprob.Params{
				Game: mcpar.Game{
					Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 10,
					Workers: workers, Seed: 6,
				},
				OuterSamples: 32, InnerSamples: 16, MixFactor: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Decide(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxMinProbWideDecide measures one Section 3.2 decision at the
// end-to-end prob-300 shape: n=300, the auditserver's prob parameters
// (λ 0.45, γ 4, δ 0.2, T 12), the auditor's default Monte Carlo budget
// (32 outer samples, 48 inner samples, mix factor 3) and a history of
// twelve answered wide max and min queries, so the coloring graph has
// several nodes with palettes of tens to hundreds of colors. The timed
// decisions re-ask that history, as prob-300's Zipf-skewed statement pool
// does, so most are answered and run the full outer budget. One worker,
// so the figure is the decision's CPU cost.
func BenchmarkMaxMinProbWideDecide(b *testing.B) {
	const n = 300
	rng := randx.New(12)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	wide := func(i int) query.Query {
		kind := query.Max
		if i%2 == 1 {
			kind = query.Min
		}
		return query.New(kind, randx.SubsetSizeBetween(rng, n, 60, 300)...)
	}
	a, err := maxminprob.New(n, maxminprob.Params{
		Game: mcpar.Game{
			Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Workers: 1, Seed: 6,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	var qs []query.Query
	for t := 0; len(qs) < 12 && t < 200; t++ {
		q := wide(t)
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, q.Eval(xs))
			qs = append(qs, q)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoolRangeOfflineAudit measures the 1-D boolean offline
// auditor (difference-constraint analysis) on a published-table-sized
// history.
func BenchmarkBoolRangeOfflineAudit(b *testing.B) {
	const n = 100
	rng := randx.New(8)
	bits := make([]int, n)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	var hist []query.Answered
	for k := 0; k < 20; k++ {
		i := rng.Intn(n)
		j := i + rng.Intn(n-i)
		var idx []int
		for t := i; t <= j; t++ {
			idx = append(idx, t)
		}
		q := query.New(query.Count, idx...)
		c := 0
		for _, t := range idx {
			c += bits[t]
		}
		hist = append(hist, query.Answered{Query: q, Answer: float64(c)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := boolrange.OfflineAudit(n, hist); err != nil {
			b.Fatal(err)
		}
	}
}
