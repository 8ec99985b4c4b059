package experiments

import (
	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/maxprob"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/stats"
	"queryaudit/internal/synopsis"
)

// MaxProbConfig parameterizes the Section 3.1 auditor experiment.
type MaxProbConfig struct {
	N       int
	Rounds  int
	Trials  int
	Params  maxprob.Params
	MinSize int
	MaxSize int
	Seed    int64
}

// DefaultMaxProb uses parameters under which some queries are answerable
// (λ generous, γ small, large query sets — see Section 3.1's discussion
// of the posterior point mass γ/|S|).
func DefaultMaxProb() MaxProbConfig {
	return MaxProbConfig{
		N: 60, Rounds: 12, Trials: 12,
		Params:  maxprob.Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12}, Samples: 64},
		MinSize: 20, MaxSize: 60,
		Seed: 4,
	}
}

// MaxProbResult summarizes the probabilistic max auditor's behaviour.
type MaxProbResult struct {
	// AnsweredFrac is the fraction of posed queries answered.
	AnsweredFrac float64
	// BreachFrac is the fraction of trials where the true posterior left
	// the λ-window after some answered query (must stay ≲ δ).
	BreachFrac float64
	// Delta echoes the configured bound for comparison.
	Delta float64
}

// MaxProb plays the (λ, δ, γ, T)-privacy game with a random attacker and
// reports utility (answered fraction) and empirical privacy.
func MaxProb(cfg MaxProbConfig) MaxProbResult {
	rng := randx.New(cfg.Seed)
	part := interval.NewPartition(0, 1, cfg.Params.Gamma)
	window := interval.RatioWindow{Lambda: cfg.Params.Lambda}
	answered, posed, breaches := 0, 0, 0
	for trial := 0; trial < cfg.Trials; trial++ {
		trng := randx.Split(rng)
		xs := randx.DuplicateFreeDataset(trng, cfg.N, 0, 1)
		p := cfg.Params
		p.Seed = trng.Int63()
		a, err := maxprob.New(cfg.N, p)
		if err != nil {
			panic(err)
		}
		truth := synopsis.NewMax(cfg.N)
		breached := false
		for round := 0; round < cfg.Rounds; round++ {
			set := randx.SubsetSizeBetween(trng, cfg.N, cfg.MinSize, cfg.MaxSize)
			q := query.New(query.Max, set...)
			posed++
			d, err := a.Decide(q)
			if err != nil {
				panic(err)
			}
			if d == audit.Deny {
				continue
			}
			answered++
			ans := q.Eval(xs)
			a.Record(q, ans)
			if err := truth.Add(q.Set, ans); err != nil {
				panic(err)
			}
			if !maxprob.SafeSynopsis(truth, part, window) {
				breached = true
			}
		}
		if breached {
			breaches++
		}
	}
	return MaxProbResult{
		AnsweredFrac: float64(answered) / float64(posed),
		BreachFrac:   float64(breaches) / float64(cfg.Trials),
		Delta:        cfg.Params.Delta,
	}
}

// MaxMinFullConfig parameterizes the Section 4 auditor's denial curve —
// the paper gives the algorithm without a figure; this experiment
// documents its utility in the same format as Figure 3.
type MaxMinFullConfig struct {
	N       int
	Queries int
	Trials  int
	Stride  int
	Seed    int64
}

// DefaultMaxMinFull mirrors Figure 3's scale at maxmin cost.
func DefaultMaxMinFull() MaxMinFullConfig {
	return MaxMinFullConfig{N: 200, Queries: 400, Trials: 8, Stride: 10, Seed: 5}
}

// MaxMinFull measures the denial probability of the Section 4 auditor
// under an even mix of random max and min queries.
func MaxMinFull(cfg MaxMinFullConfig) stats.Curve {
	rng := randx.New(cfg.Seed)
	var acc stats.Accumulator
	for trial := 0; trial < cfg.Trials; trial++ {
		trng := randx.Split(rng)
		xs := randx.DuplicateFreeDataset(trng, cfg.N, 0, 1)
		a := maxminfull.New(cfg.N)
		ind := make([]float64, cfg.Queries)
		for t := 0; t < cfg.Queries; t++ {
			kind := query.Max
			if trng.Intn(2) == 0 {
				kind = query.Min
			}
			q := query.Query{Set: query.NewSet(randx.Subset(trng, cfg.N)...), Kind: kind}
			d, err := a.Decide(q)
			if err != nil {
				panic(err)
			}
			if d == audit.Deny {
				ind[t] = 1
			} else {
				a.Record(q, q.Eval(xs))
			}
		}
		acc.AddTrial(ind)
	}
	return acc.Curve("maxmin-full", cfg.Stride)
}

// MaxMinProbConfig parameterizes the Section 3.2 auditor demo.
type MaxMinProbConfig struct {
	N      int
	Rounds int
	Trials int
	Params maxminprob.Params
	Seed   int64
}

// DefaultMaxMinProb keeps the MCMC effort laptop-sized.
func DefaultMaxMinProb() MaxMinProbConfig {
	return MaxMinProbConfig{
		N: 40, Rounds: 8, Trials: 6,
		Params: maxminprob.Params{
			Game: mcpar.Game{
				Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 8,
			},
			OuterSamples: 12, InnerSamples: 24, MixFactor: 2,
		},
		Seed: 6,
	}
}

// MaxMinProbResult summarizes the Section 3.2 auditor's behaviour.
type MaxMinProbResult struct {
	AnsweredFrac float64
	Posed        int
}

// MaxMinProb drives random max/min bags through the probabilistic
// max∧min auditor and reports the answered fraction.
func MaxMinProb(cfg MaxMinProbConfig) MaxMinProbResult {
	rng := randx.New(cfg.Seed)
	answered, posed := 0, 0
	for trial := 0; trial < cfg.Trials; trial++ {
		trng := randx.Split(rng)
		xs := randx.DuplicateFreeDataset(trng, cfg.N, 0, 1)
		p := cfg.Params
		p.Seed = trng.Int63()
		a, err := maxminprob.New(cfg.N, p)
		if err != nil {
			panic(err)
		}
		for round := 0; round < cfg.Rounds; round++ {
			kind := query.Max
			if trng.Intn(2) == 0 {
				kind = query.Min
			}
			set := randx.SubsetSizeBetween(trng, cfg.N, cfg.N/2, cfg.N)
			q := query.Query{Set: query.NewSet(set...), Kind: kind}
			posed++
			d, err := a.Decide(q)
			if err != nil {
				panic(err)
			}
			if d == audit.Answer {
				answered++
				a.Record(q, q.Eval(xs))
			}
		}
	}
	return MaxMinProbResult{AnsweredFrac: float64(answered) / float64(posed), Posed: posed}
}

// MaxUtilityRow is one point of the max-utility sweep.
type MaxUtilityRow struct {
	N          int
	PlateauDup float64 // duplicates-allowed [21] auditor
	PlateauNo  float64 // no-duplicates §4 auditor
}

// MaxUtilitySweep measures the long-run denial probability of both max
// auditors across database sizes — the empirical face of the question
// Section 6 leaves open ("an exact analysis of utility for max queries
// is an open problem").
func MaxUtilitySweep(sizes []int, queriesPerN int, trials int, seed int64) []MaxUtilityRow {
	rows := make([]MaxUtilityRow, 0, len(sizes))
	for _, n := range sizes {
		cfg := Fig3Config{
			N: n, Queries: queriesPerN * n / 100, Trials: trials,
			Stride: 10, Seed: seed, AllowDuplicates: true,
		}
		if cfg.Queries < 100 {
			cfg.Queries = 100
		}
		dup := Fig3(cfg).Tail(0.3)
		cfg.AllowDuplicates = false
		nodup := Fig3(cfg).Tail(0.3)
		rows = append(rows, MaxUtilityRow{N: n, PlateauDup: dup, PlateauNo: nodup})
	}
	return rows
}

// MaxProbSweepRow is one (λ, γ) cell of the parameter sweep.
type MaxProbSweepRow struct {
	Lambda       float64
	Gamma        int
	AnsweredFrac float64
	BreachFrac   float64
}

// MaxProbParamSweep plays the (λ, δ, γ, T) game across a parameter grid
// — the utility/privacy trade-off surface a DBA actually tunes. The
// breach fraction must stay within δ everywhere (Theorem 1); utility
// grows with λ and shrinks with γ.
func MaxProbParamSweep(lambdas []float64, gammas []int, base MaxProbConfig) []MaxProbSweepRow {
	var rows []MaxProbSweepRow
	for _, l := range lambdas {
		for _, g := range gammas {
			cfg := base
			cfg.Params.Lambda = l
			cfg.Params.Gamma = g
			r := MaxProb(cfg)
			rows = append(rows, MaxProbSweepRow{
				Lambda: l, Gamma: g,
				AnsweredFrac: r.AnsweredFrac, BreachFrac: r.BreachFrac,
			})
		}
	}
	return rows
}
