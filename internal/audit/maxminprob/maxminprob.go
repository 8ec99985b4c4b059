// Package maxminprob implements the paper's Section 3.2 contribution: a
// (λ, δ, γ, T)-private simulatable auditor for *bags* of max and min
// queries under partial disclosure, for datasets uniform on the
// duplicate-free points of [0,1]^n.
//
// Posterior inference runs through the graph-coloring reduction of
// Lemmas 1–3 (package coloring): witnesses of the equality predicates are
// sampled by the Markov chain, and conditioned on a coloring every
// remaining element is uniform on its synopsis range. The per-element
// posterior therefore decomposes as
//
//	P(x_i ∈ I | B) = Σ_v π_i(v)·1[A(v) ∈ I] + (1 − Σ_v π_i(v))·|R_i ∩ I|/|R_i|
//
// where π_i(v) is the probability that i is node v's witness — the only
// quantity the Monte Carlo has to estimate.
//
// The auditor additionally enforces Lemma 2's degree condition
// |S(v)| ≥ d_v + 2 by outright denial: if any answer consistent with the
// current synopsis could produce a graph violating the condition, the
// query is refused before any sampling happens (the finite candidate-
// answer technique of Section 4 makes this check effective).
//
// The outer Monte Carlo loop runs on the shared parallel engine
// (internal/mcpar): the coloring graph of the current synopsis is built
// once per decision and shared read-only, each worker keeps a reusable
// chain sampler and dataset buffers, and every outer sample draws from a
// counter-based stream keyed by (decision seed, sample index) so the
// decision is bit-identical at any worker count.
package maxminprob

import (
	"fmt"
	"math/rand"
	"slices"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
)

// Params configure the (λ, δ, γ, T) game and the Monte Carlo effort.
type Params struct {
	// Lambda bounds the tolerated posterior/prior ratio drift (0<λ<1).
	Lambda float64
	// Gamma is the number of partition intervals of [0,1].
	Gamma int
	// Delta bounds the attacker's winning probability over T rounds.
	Delta float64
	// T is the number of game rounds.
	T int
	// OuterSamples is the number of hypothetical datasets per decision
	// (0 → a small default).
	OuterSamples int
	// InnerSamples is the number of colorings per posterior estimate
	// (0 → a small default).
	InnerSamples int
	// MixFactor is the constant in the O(k log k) mixing budget
	// (0 → 3).
	MixFactor float64
	// EnumerateLimit bounds the coloring-space size under which the
	// auditor switches from MCMC to exact enumeration — the paper's
	// fallback when Lemma 2's degree condition fails (0 → 20000).
	EnumerateLimit int
	// Workers bounds the parallel Monte Carlo pool per decision;
	// 0 = GOMAXPROCS, 1 = sequential. Decisions are identical at any
	// worker count for a fixed Seed.
	Workers int
	// Seed drives the auditor's randomness.
	Seed int64
	// AdaptiveAlpha, when positive, arms mcpar's variance-aware adaptive
	// sequential test: a decision stops early once its outcome is pinned
	// with confidence 1-AdaptiveAlpha. Zero (the default) keeps the exact
	// certificates only, which never change a decision.
	AdaptiveAlpha float64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Lambda <= 0 || p.Lambda >= 1 {
		return fmt.Errorf("maxminprob: lambda must be in (0,1), got %g", p.Lambda)
	}
	if p.Gamma < 1 {
		return fmt.Errorf("maxminprob: gamma must be >= 1, got %d", p.Gamma)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("maxminprob: delta must be in (0,1), got %g", p.Delta)
	}
	if p.T < 1 {
		return fmt.Errorf("maxminprob: T must be >= 1, got %d", p.T)
	}
	return nil
}

func (p Params) outer() int {
	if p.OuterSamples > 0 {
		return p.OuterSamples
	}
	return 32
}

func (p Params) inner() int {
	if p.InnerSamples > 0 {
		return p.InnerSamples
	}
	return 48
}

func (p Params) mixFactor() float64 {
	if p.MixFactor > 0 {
		return p.MixFactor
	}
	return 3
}

func (p Params) enumerateLimit() int {
	if p.EnumerateLimit > 0 {
		return p.EnumerateLimit
	}
	return 20000
}

// Auditor is the Section 3.2 simulatable probabilistic max∧min auditor.
type Auditor struct {
	n      int
	params Params
	part   interval.Partition
	window interval.RatioWindow
	syn    *synopsis.MaxMin
	// decisions counts Decide calls; each decision derives its own base
	// seed from (params.Seed, decisions) so samples are fresh per decision
	// yet bit-reproducible across runs and worker counts.
	decisions uint64
	// mc observes per-decision Monte Carlo accounting (may be nil).
	mc            *metrics.MCCollector
	sched         *mcpar.Scheduler
	denyThreshold float64
}

// New returns an auditor over n records in [0,1].
func New(n int, params Params) (*Auditor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Auditor{
		n:             n,
		params:        params,
		part:          interval.NewPartition(0, 1, params.Gamma),
		window:        interval.RatioWindow{Lambda: params.Lambda},
		syn:           synopsis.NewMaxMin(n, 0, 1),
		denyThreshold: params.Delta / (2 * float64(params.T)),
	}, nil
}

// ConfigureMC installs the per-decision Monte Carlo accounting collector
// (nil disables) and the shared assist pool (nil selects
// mcpar.Default()), and sets Params.Workers, the per-decision pool cap,
// when workers is non-zero.
func (a *Auditor) ConfigureMC(workers int, mc *metrics.MCCollector, sched *mcpar.Scheduler) {
	if workers != 0 {
		a.params.Workers = workers
	}
	a.mc, a.sched = mc, sched
}

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "maxmin-partial-disclosure" }

// N returns the number of records.
func (a *Auditor) N() int { return a.n }

// Synopsis exposes a copy of the trail.
func (a *Auditor) Synopsis() *synopsis.MaxMin { return a.syn.Clone() }

// candidates mirrors the Algorithm 3 finite answer set, restricted to
// [0,1]: predicate values touching q plus representatives of the open
// intervals they delimit (collision-avoiding — see
// audit.CandidateAnswers), clipped to the data range.
func (a *Auditor) candidates(q query.Set) []float64 {
	// CandidateAnswers sorts and dedups, so duplicates are fine here —
	// and collecting into a slice (rather than a dedup map iterated in
	// random order) keeps the candidate stream deterministic.
	values := make([]float64, 0, 2*len(q)+2)
	values = append(values, 0, 1)
	for _, i := range q {
		if v, ok := a.syn.MaxValueOf(i); ok {
			values = append(values, v)
		}
		if v, ok := a.syn.MinValueOf(i); ok {
			values = append(values, v)
		}
	}
	all := audit.CandidateAnswers(values, a.syn.EqValues())
	out := all[:0]
	for _, v := range all {
		if v >= 0 && v <= 1 {
			out = append(out, v)
		}
	}
	return out
}

// inferenceTractableForAllAnswers reports whether posterior inference
// stays tractable for every consistent candidate answer: either the
// coloring graph meets Lemma 2's degree condition (MCMC mixes) or its
// coloring space is small enough for the exact-enumeration fallback the
// paper sketches. Queries failing both are denied outright, exactly as
// Section 3.2 prescribes.
func (a *Auditor) inferenceTractableForAllAnswers(q query.Query) bool {
	limit := a.params.enumerateLimit()
	var g coloring.Graph
	for _, cand := range a.candidates(q.Set) {
		if a.syn.Fold(q.Kind, q.Set, cand) != nil {
			continue // inconsistent answers cannot occur
		}
		err := coloring.BuildInto(&g, a.syn)
		a.syn.Rollback()
		if err != nil || !g.MeetsLemma2() && g.SpaceSize(limit) >= limit {
			return false
		}
	}
	return true
}

// posterior is the reusable state of one posterior estimate: the
// coloring graph of the synopsis under test, the witness counts behind
// its witness probabilities, and the per-element witness-mass table
// safeState reads. Each Monte Carlo worker owns one, so once its buffers
// have grown an estimate allocates little beyond the chain's start.
type posterior struct {
	g coloring.Graph
	// counts holds every node's witness counts back to back; probs[v]
	// views node v's run.
	counts []float64
	probs  [][]float64
	// massAt[i]:massAt[i+1] delimits element i's entries in mass.
	massAt []int
	mass   []witnessMass
}

// witnessMass is one node's witness probability on one element.
type witnessMass struct {
	value float64
	p     float64
}

// witnessProbs computes π_i(v) for a synopsis: exactly (by enumeration)
// when the graph is small or fails Lemma 2's ergodicity condition, by
// the Markov chain otherwise. It is a one-off estimate on fresh scratch.
func witnessProbs(b *synopsis.MaxMin, params Params, rng *rand.Rand) (*coloring.Graph, [][]float64, error) {
	ps := new(posterior)
	probs, err := ps.witnessProbs(b, params, rng)
	if err != nil {
		return nil, nil, err
	}
	return &ps.g, probs, nil
}

// witnessProbs is the package-level witnessProbs over ps's buffers: the
// graph it estimates is ps.g, and the returned rows alias ps until its
// next estimate.
func (ps *posterior) witnessProbs(b *synopsis.MaxMin, params Params, rng *rand.Rand) ([][]float64, error) {
	if err := coloring.BuildInto(&ps.g, b); err != nil {
		return nil, err
	}
	g := &ps.g
	limit := params.enumerateLimit()
	if !g.MeetsLemma2() || g.SpaceSize(limit) < limit {
		if probs, ok := coloring.ExactWitnessProbs(g, limit); ok {
			return probs, nil
		}
		if !g.MeetsLemma2() {
			return nil, fmt.Errorf("maxminprob: graph fails Lemma 2 and exceeds the enumeration limit")
		}
	}
	s, err := coloring.NewSampler(g, rng)
	if err != nil {
		return nil, err
	}
	s.Mix(params.mixFactor()) // burn-in
	inner := params.inner()
	total := 0
	for v := range g.Nodes {
		total += len(g.Nodes[v].Colors)
	}
	ps.counts = slices.Grow(ps.counts[:0], total)[:total]
	clear(ps.counts)
	ps.probs = ps.probs[:0]
	for v, off := 0, 0; v < g.K(); v++ {
		end := off + len(g.Nodes[v].Colors)
		ps.probs = append(ps.probs, ps.counts[off:end:end])
		off = end
	}
	counts := ps.probs
	thin := coloring.MixSteps(g.K(), params.mixFactor()/4+0.5)
	for it := 0; it < inner; it++ {
		for st := 0; st < thin; st++ {
			s.Step()
		}
		// No-copy read; consumed before the next Step.
		for v, ci := range s.CurrentIndices() {
			counts[v][ci]++
		}
	}
	for v := range counts {
		for ci := range counts[v] {
			counts[v][ci] /= float64(inner)
		}
	}
	return counts, nil
}

// safeState checks the λ-window for every element × interval given a
// synopsis state, using Monte Carlo witness probabilities drawn from rng
// on the worker's scratch ps.
func (a *Auditor) safeState(b *synopsis.MaxMin, rng *rand.Rand, ps *posterior) (bool, error) {
	probs, err := ps.witnessProbs(b, a.params, rng)
	if err != nil {
		return false, err
	}
	g := &ps.g
	// Gather, per element, its witness probability mass per node value,
	// in (node, palette) order. Count each element's entries, turn the
	// counts into start offsets, place the entries while advancing the
	// offsets, then shift them back.
	ps.massAt = slices.Grow(ps.massAt[:0], a.n+1)[:a.n+1]
	clear(ps.massAt)
	for v := range g.Nodes {
		for ci, col := range g.Nodes[v].Colors {
			if probs[v][ci] > 0 {
				ps.massAt[col+1]++
			}
		}
	}
	for i := 0; i < a.n; i++ {
		ps.massAt[i+1] += ps.massAt[i]
	}
	ps.mass = slices.Grow(ps.mass[:0], ps.massAt[a.n])[:ps.massAt[a.n]]
	for v := range g.Nodes {
		node := &g.Nodes[v]
		for ci, col := range node.Colors {
			if probs[v][ci] > 0 {
				ps.mass[ps.massAt[col]] = witnessMass{value: node.Value, p: probs[v][ci]}
				ps.massAt[col]++
			}
		}
	}
	copy(ps.massAt[1:], ps.massAt[:a.n])
	ps.massAt[0] = 0
	prior := a.part.Prior()
	for i := 0; i < a.n; i++ {
		r := g.Range(i)
		wit := ps.mass[ps.massAt[i]:ps.massAt[i+1]]
		constrained := len(wit) > 0 || r.Lo > 0 || r.Hi < 1
		if !constrained {
			continue // posterior equals prior exactly
		}
		var witTotal float64
		for _, m := range wit {
			witTotal += m.p
		}
		free := 1 - witTotal
		iv := interval.Interval{Lo: r.Lo, Hi: r.Hi}
		for j := 1; j <= a.params.Gamma; j++ {
			cell := a.part.Cell(j)
			post := free * iv.OverlapFraction(cell)
			for _, m := range wit {
				//auditlint:allow floateq final partition cell is closed at beta; the exact-endpoint test mirrors interval.CellIndex
				if m.value >= cell.Lo && (m.value < cell.Hi || (j == a.params.Gamma && m.value == cell.Hi)) {
					post += m.p
				}
			}
			if !a.window.SafePosterior(post, prior) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Decide implements audit.Auditor: Lemma 2 pre-check, then the sampled
// privacy estimate of the Section 3.2 simulatable auditor.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Max && q.Kind != query.Min {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("maxminprob: empty query set")
	}
	for _, i := range q.Set {
		if i < 0 || i >= a.n {
			return audit.Deny, fmt.Errorf("maxminprob: index %d out of range", i)
		}
	}
	if !a.inferenceTractableForAllAnswers(q) {
		return audit.Deny, nil
	}
	// The coloring graph of the current synopsis is identical for every
	// outer sample: build it (and its deterministic starting coloring)
	// once per decision and share both read-only across the workers.
	g, err := coloring.Build(a.syn)
	if err != nil {
		return audit.Deny, err
	}
	init, err := g.InitialColoring()
	if err != nil {
		return audit.Deny, err
	}
	budget := a.params.outer()
	barrier := mcpar.DenyBarrier(budget, a.denyThreshold)
	seed := randx.DeriveSeed(a.params.Seed, a.decisions)
	a.decisions++
	out := mcpar.Vote(
		mcpar.Config{
			Workers:       a.params.Workers,
			Seed:          seed,
			Observer:      a.mc,
			Sched:         a.sched,
			AdaptiveAlpha: a.params.AdaptiveAlpha,
		},
		budget, barrier,
		func() *decideScratch {
			return &decideScratch{
				xs:    make([]float64, a.n),
				fixed: make([]bool, a.n),
				syn:   a.syn.Clone(),
			}
		},
		func(_ int, rng *rand.Rand, sc *decideScratch) bool {
			return a.unsafeSample(q, g, init, rng, sc)
		})
	if out.Exceeded {
		return audit.Deny, nil
	}
	return audit.Answer, nil
}

// unsafeSample is one outer Monte Carlo sample of Decide: it draws a
// dataset from P(X | B) via the coloring chain of the decision graph g
// (Lemma 1), reusing the worker's sampler rebased onto this sample's
// random stream, folds q's answer on it into the lane's copy of the
// synopsis, reports whether that state breaks the λ-window and rolls the
// fold back. The shared synopsis a.syn is only read.
func (a *Auditor) unsafeSample(q query.Query, g *coloring.Graph, init []int, rng *rand.Rand, sc *decideScratch) bool {
	if sc.sampler == nil {
		s, err := coloring.NewSamplerFrom(g, rng, init)
		if err != nil {
			return true
		}
		sc.sampler = s
	} else if sc.sampler.Reset(rng, init) != nil {
		return true
	}
	sc.sampler.Mix(a.params.mixFactor())
	sc.sampler.SampleDatasetInto(rng, sc.xs, sc.fixed)
	if sc.syn.Fold(q.Kind, q.Set, q.Eval(sc.xs)) != nil {
		return true // sampled-consistent answers should fold cleanly
	}
	ok, err := a.safeState(sc.syn, rng, &sc.post)
	sc.syn.Rollback()
	return err != nil || !ok
}

// decideScratch is the per-lane reusable state of one Decide: the chain
// sampler over the shared decision graph, the dataset buffers, the
// lane's copy of the synopsis, which each sample folds its answer into
// and rolls back, and the posterior scratch of those trial states. A
// lane is made once per Decide, so its copy is the synopsis the
// decision started from.
type decideScratch struct {
	sampler *coloring.Sampler
	xs      []float64
	fixed   []bool
	syn     *synopsis.MaxMin
	post    posterior
}

// Record implements audit.Auditor.
func (a *Auditor) Record(q query.Query, answer float64) {
	var err error
	switch q.Kind {
	case query.Max:
		err = a.syn.AddMax(q.Set, answer)
	case query.Min:
		err = a.syn.AddMin(q.Set, answer)
	default:
		err = fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if err != nil {
		panic(fmt.Sprintf("maxminprob: recording true answer failed: %v", err))
	}
}
