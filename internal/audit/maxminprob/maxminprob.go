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
// once per decision and shared read-only, each lane keeps a reusable
// chain sampler and dataset buffers, and every outer sample draws from a
// counter-based stream keyed by (decision seed, sample index) so the
// decision is bit-identical at any worker count. Each lane also keeps
// the trial state of the last answer it folded — the graph and what
// depends on it alone — and reuses it while its samples draw that
// answer, as they often do; the state uses no randomness, so reuse
// changes no verdict.
//
// A sample therefore costs its coloring chains — the one that draws the
// dataset, then the one that counts witnesses — plus work proportional
// to the witness entries the second chain hit. Its draws read the lane's
// SplitMix directly (coloring.Sampler.ResetSource), with no interface
// call or division per step. Its λ-window sums each hit element's
// witness mass and compares it with a bound, computed once per trial
// state for each class of elements with the same range, below which the
// element passes in every cell wherever its witnesses fall; only the
// rare element above its bound runs the exact per-cell loop (window). A
// sample that draws a new answer also pays for the fold and the rebuild
// of its trial state. Finished lanes go back to a pool that every
// auditor draws from, so a lane's buffers serve many decisions.
package maxminprob

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
)

// Params configure the (λ, δ, γ, T) game and the Monte Carlo effort.
type Params struct {
	mcpar.Game
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
	mcpar.Shell
	n int
	// params holds the sampling effort; its game is the shell's as New
	// received it.
	params Params
	// cells are the Γ cells of the partition of [0,1], and prior the
	// prior probability 1/Γ of each.
	cells  []interval.Interval
	prior  float64
	window interval.RatioWindow
	syn    *synopsis.MaxMin
	// g is the decision graph, refilled by coloring.BuildInto once per
	// Decide. Decide calls are serialized by the engine, and the Monte
	// Carlo lanes only read g until mcpar.Vote returns, so one graph
	// serves every decision.
	g coloring.Graph
	// census counts each candidate answer's graph for the Lemma 2 check.
	census coloring.Census
}

// New returns an auditor over n records in [0,1].
func New(n int, params Params) (*Auditor, error) {
	sh, err := mcpar.NewShell(params.Game)
	if err != nil {
		return nil, fmt.Errorf("maxminprob: %w", err)
	}
	part := interval.NewPartition(0, 1, params.Gamma)
	cells := make([]interval.Interval, params.Gamma)
	for j := range cells {
		cells[j] = part.Cell(j + 1)
	}
	return &Auditor{
		Shell:  sh,
		n:      n,
		params: params,
		cells:  cells,
		prior:  part.Prior(),
		window: interval.RatioWindow{Lambda: params.Lambda},
		syn:    synopsis.NewMaxMin(n, 0, 1),
	}, nil
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
	for _, cand := range a.candidates(q.Set) {
		if a.syn.Fold(q.Kind, q.Set, cand) != nil {
			continue // inconsistent answers cannot occur
		}
		err := a.census.Count(a.syn)
		a.syn.Rollback()
		if err != nil || !a.census.MeetsLemma2() && a.census.SpaceSize(limit) >= limit {
			return false
		}
	}
	return true
}

// posterior is one Monte Carlo lane's posterior estimate, split in two.
// Its trial state is a pure function of the synopsis under test, so load
// computes it once per state: the coloring graph, the route to the
// witness probabilities (exact enumeration, or the chain's starting
// coloring), the λ-window's range classes, and any failure on the way;
// on the exact path the whole safeState verdict is kept too. A sample
// then pays only for its own part: the chain's witness counts, drawn
// from its stream, and the λ-window over the entries the chain hit.
type posterior struct {
	g coloring.Graph
	// err is the trial state's failure: a fold that did not apply, an
	// inconsistent graph, or one that fails Lemma 2 and exceeds the
	// enumeration limit. Every estimate on the state fails with it.
	err error
	// exact holds the enumerated witness probabilities; nil when the
	// chain estimates them, starting each run from init on sampler.
	exact   [][]float64
	init    []int
	sampler *coloring.Sampler
	// verdict is safeState's verdict on the exact path, once known.
	verdict verdict
	win     window
	// counts holds every node's witness counts back to back; probs[v]
	// views node v's run.
	counts []float64
	probs  [][]float64
}

// verdict is a λ-window verdict that may not be computed yet.
type verdict uint8

const (
	unknown verdict = iota
	safe
	unsafe
)

func verdictOf(ok bool) verdict {
	if ok {
		return safe
	}
	return unsafe
}

// witnessProbs computes π_i(v) for a synopsis: exactly (by enumeration)
// when the graph is small or fails Lemma 2's ergodicity condition, by
// the Markov chain otherwise. It is a one-off estimate on fresh scratch.
func witnessProbs(b *synopsis.MaxMin, params Params, rng *rand.Rand) (*coloring.Graph, [][]float64, error) {
	ps := new(posterior)
	if err := ps.route(b, params); err != nil {
		return nil, nil, err
	}
	probs, scale, err := ps.witnessCounts(params, rng, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, row := range probs {
		for ci := range row {
			row[ci] /= scale
		}
	}
	return &ps.g, probs, nil
}

// load makes ps the trial state of b, or, when foldErr is non-nil, of a
// fold that failed with it.
func (ps *posterior) load(a *Auditor, b *synopsis.MaxMin, foldErr error) {
	ps.exact, ps.init, ps.verdict = nil, nil, unknown
	ps.err = foldErr
	if ps.err == nil {
		ps.err = ps.route(b, a.params)
	}
	if ps.err == nil {
		ps.win.load(a, &ps.g)
	}
}

// route builds the coloring graph of b and settles how its witness
// probabilities are computed.
func (ps *posterior) route(b *synopsis.MaxMin, params Params) error {
	if err := coloring.BuildInto(&ps.g, b); err != nil {
		return err
	}
	g := &ps.g
	limit := params.enumerateLimit()
	if !g.MeetsLemma2() || g.SpaceSize(limit) < limit {
		if probs, ok := coloring.ExactWitnessProbs(g, limit); ok {
			ps.exact = probs
			return nil
		}
		if !g.MeetsLemma2() {
			return fmt.Errorf("maxminprob: graph fails Lemma 2 and exceeds the enumeration limit")
		}
	}
	init, err := g.InitialColoring()
	ps.init = init
	return err
}

// witnessCounts returns the witness counts of ps's trial state and the
// number of runs they are over: the enumerated probabilities over 1, or
// a fresh chain's tallies over its inner samples, drawn from src
// directly when it is non-nil and from rng otherwise. π_i(v) is a count
// divided by the scale. The rows alias ps until its next estimate.
func (ps *posterior) witnessCounts(params Params, rng *rand.Rand, src *randx.SplitMix) ([][]float64, float64, error) {
	if ps.err != nil || ps.exact != nil {
		return ps.exact, 1, ps.err
	}
	g := &ps.g
	var err error
	switch {
	case src == nil: // a one-off estimate (witnessProbs)
		ps.sampler, err = coloring.NewSamplerFrom(g, rng, ps.init)
	case ps.sampler == nil:
		ps.sampler, err = coloring.NewSamplerSource(g, src, ps.init)
	default:
		err = ps.sampler.ResetSource(src, ps.init)
	}
	if err != nil {
		return nil, 0, err
	}
	s := ps.sampler
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
	return counts, float64(inner), nil
}

// safeState checks the λ-window for every element × interval of ps's
// trial state, with witness probabilities drawn from src on the chain
// path.
func (a *Auditor) safeState(src *randx.SplitMix, ps *posterior) (bool, error) {
	if ps.verdict != unknown {
		return ps.verdict == safe, nil
	}
	probs, scale, err := ps.witnessCounts(a.params, nil, src)
	if err != nil {
		return false, err
	}
	ok := a.safeWindow(ps, probs, scale)
	if ps.exact != nil {
		ps.verdict = verdictOf(ok)
	}
	return ok, nil
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
	g := &a.g
	if err := coloring.BuildInto(g, a.syn); err != nil {
		return audit.Deny, err
	}
	init, err := g.InitialColoring()
	if err != nil {
		return audit.Deny, err
	}
	budget := a.params.outer()
	seed := a.NextSeed()
	// Lanes are taken from the pool on the goroutines that first run a
	// sample, and each starts from a copy of the synopsis. Once the vote
	// is over every lane's open fold is closed, so its undo trails go back
	// to the synopsis pool, and the lane goes back to the lane pool.
	var lanesMu sync.Mutex
	var lanes []*decideScratch
	out := mcpar.Vote(a.Config(seed), budget, a.Barrier(budget),
		func() *decideScratch {
			sc, _ := lanePool.Get().(*decideScratch)
			if sc == nil || len(sc.xs) != a.n {
				sc = &decideScratch{xs: make([]float64, a.n), fixed: make([]bool, a.n)}
			}
			sc.syn = a.syn.Clone()
			lanesMu.Lock()
			lanes = append(lanes, sc)
			lanesMu.Unlock()
			return sc
		},
		func(_ int, _ *rand.Rand, src *randx.SplitMix, sc *decideScratch) bool {
			return a.unsafeSample(q, g, init, src, sc)
		})
	for _, sc := range lanes {
		sc.close()
		lanePool.Put(sc)
	}
	if out.Exceeded {
		return audit.Deny, nil
	}
	return audit.Answer, nil
}

// unsafeSample is one outer Monte Carlo sample of Decide: it draws a
// dataset from P(X | B) via the coloring chain of the decision graph g
// (Lemma 1), reusing the lane's sampler rebased onto this sample's
// random stream, makes the trial state of q's answer on it current in
// the lane and reports whether that state breaks the λ-window. Every
// draw reads src, the sample's stream, directly: the draws a rand.Rand
// over src would make, in the same order. The shared synopsis a.syn is
// only read.
func (a *Auditor) unsafeSample(q query.Query, g *coloring.Graph, init []int, src *randx.SplitMix, sc *decideScratch) bool {
	if sc.sampler == nil || sc.graph != g {
		s, err := coloring.NewSamplerSource(g, src, init)
		if err != nil {
			return true
		}
		sc.sampler, sc.graph = s, g
	} else if sc.sampler.ResetSource(src, init) != nil {
		return true
	}
	sc.sampler.Mix(a.params.mixFactor())
	sc.sampler.SampleDatasetInto(sc.xs, sc.fixed)
	sc.trial(a, q, q.Eval(sc.xs))
	ok, err := a.safeState(src, &sc.post)
	return err != nil || !ok
}

// trial makes sc.post the trial state of q answered ans. An answer with
// the float bits of the one already loaded keeps the state as it is;
// any other rolls the lane's open fold back, folds ans and loads its
// state. A fold that fails, which sampled answers should not, leaves
// no fold open and a state whose estimates fail.
func (sc *decideScratch) trial(a *Auditor, q query.Query, ans float64) {
	bits := math.Float64bits(ans)
	if sc.loaded && bits == sc.answer {
		return
	}
	if sc.open {
		sc.syn.Rollback()
	}
	sc.loaded, sc.answer = true, bits
	err := sc.syn.Fold(q.Kind, q.Set, ans)
	sc.open = err == nil
	sc.post.load(a, sc.syn, err)
}

// close ends the lane's part in a vote: its open fold, if any, is
// committed to the lane's copy of the synopsis, which is dropped, so
// that the fold's undo trails return to the pool, and the lane forgets
// its trial state.
func (sc *decideScratch) close() {
	if sc.open {
		sc.syn.Commit()
	}
	sc.syn, sc.loaded, sc.open = nil, false, false
}

// lanePool holds the lanes of finished votes, of every auditor, so that
// a lane's buffers serve many decisions while the garbage collector may
// still drop idle ones. A lane draws no randomness of its own and forgets
// its trial state when a vote ends, so which lane a sample runs on
// changes nothing.
var lanePool sync.Pool

// decideScratch is the per-lane reusable state of a vote: the chain
// sampler over the decision graph, the dataset buffers, the lane's copy
// of the synopsis and the trial state of the last answer folded into
// it. A lane takes a fresh copy of the synopsis for each vote it joins,
// so its copy is the synopsis the decision started from, plus at most
// that one open fold, which the lane keeps until a sample draws another
// answer or the vote ends (close). Its buffers outlive the vote: the
// lane goes back to lanePool.
type decideScratch struct {
	// sampler runs the chain over graph, the decision graph it was made
	// for.
	sampler *coloring.Sampler
	graph   *coloring.Graph
	xs      []float64
	fixed   []bool
	syn     *synopsis.MaxMin
	// loaded reports that post is the trial state of the answer with
	// float bits answer; open, that this answer's fold is open in syn.
	loaded, open bool
	answer       uint64
	post         posterior
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
