// Package maxprob implements the paper's Section 3.1 contribution: a
// (λ, δ, γ, T)-private simulatable auditor for max queries under partial
// disclosure (probabilistic compromise), for datasets drawn uniformly
// from the duplicate-free points of [0,1]^n.
//
// Algorithm 1 ("Safe") decides whether a hypothetical answered history is
// safe: for every element and every interval of the γ-partition, the
// posterior/prior ratio must stay within [1−λ, 1/(1−λ)]. The synopsis
// makes the posterior closed-form — an element under [max(S)=M] is
// uniform on [0, M) with mass (1−1/|S|) plus a point mass 1/|S| at M; an
// element under [max(S)<M] is uniform on [0, M).
//
// Algorithm 2 (the simulatable auditor) samples datasets consistent with
// the current synopsis, computes the answer each sample would give to the
// new query, and denies iff the fraction of samples whose answer would
// violate safety exceeds δ/(2T). Theorem 1 proves (λ, δ, γ, T)-privacy.
//
// The Monte Carlo loop runs on the shared parallel engine
// (internal/mcpar): the sample budget fans out across Params.Workers
// workers, every sample drawing from its own counter-based stream keyed
// by (decision seed, sample index), so decisions are bit-identical at any
// worker count and the loop exits early once the δ/(2T) barrier is
// provably crossed or provably out of reach.
package maxprob

import (
	"fmt"
	"math"
	"math/rand"

	"queryaudit/internal/audit"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
)

// Params are the privacy-game parameters of the (λ, δ, γ, T) game plus
// sampling knobs.
type Params struct {
	mcpar.Game
	// Samples overrides the number of Monte Carlo datasets per decision;
	// 0 selects the Chernoff-derived default, Game.ChernoffSamples.
	Samples int
	// Alpha, Beta optionally widen the data range from the default [0,1]
	// (the paper's footnote: "the algorithm can easily be extended to
	// other ranges"). Internally everything is affinely normalized to
	// [0,1]; posterior/prior ratios are invariant under that map.
	Alpha, Beta float64
}

// rangeBounds returns the configured data range, defaulting to [0,1].
func (p Params) rangeBounds() (alpha, beta float64) {
	if p.Beta > p.Alpha {
		return p.Alpha, p.Beta
	}
	return 0, 1
}

// Auditor is the Section 3.1 simulatable probabilistic max auditor.
type Auditor struct {
	mcpar.Shell
	n       int
	part    interval.Partition
	window  interval.RatioWindow
	syn     *synopsis.Max
	samples int
	// alpha, scale implement the affine normalization onto [0,1].
	alpha, scale float64
}

// New returns an auditor over n records in [0,1].
func New(n int, params Params) (*Auditor, error) {
	sh, err := mcpar.NewShell(params.Game)
	if err != nil {
		return nil, fmt.Errorf("maxprob: %w", err)
	}
	if params.Beta < params.Alpha {
		return nil, fmt.Errorf("maxprob: beta %g below alpha %g", params.Beta, params.Alpha)
	}
	samples := params.Samples
	if samples <= 0 {
		samples = params.ChernoffSamples()
	}
	alpha, beta := params.rangeBounds()
	return &Auditor{
		Shell:   sh,
		n:       n,
		part:    interval.NewPartition(0, 1, params.Gamma),
		window:  interval.RatioWindow{Lambda: params.Lambda},
		syn:     synopsis.NewMax(n),
		samples: samples,
		alpha:   alpha,
		scale:   beta - alpha,
	}, nil
}

// normalize maps a raw answer into the internal [0,1] coordinates.
func (a *Auditor) normalize(v float64) float64 { return (v - a.alpha) / a.scale }

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "max-partial-disclosure" }

// N returns the number of records.
func (a *Auditor) N() int { return a.n }

// SafeSynopsis is Algorithm 1 over a synopsis: it reports whether every
// element × interval posterior/prior ratio is inside the λ-window.
//
// The per-element check is O(1): within one predicate the ratio takes at
// most three distinct values (intervals fully below M, the interval
// containing M, intervals beyond M — the latter always unsafe because
// the posterior there is 0). Elements outside every predicate have ratio
// exactly 1.
func SafeSynopsis(syn *synopsis.Max, part interval.Partition, window interval.RatioWindow) bool {
	gamma := float64(part.Gamma)
	for _, p := range syn.Preds() {
		M := p.Value
		if M <= 0 || M > 1 {
			return false // degenerate bound: everything pinned or absurd
		}
		mIdx := math.Ceil(M * gamma) // ⌈Mγ⌉, the 1-based cell containing M
		if mIdx < gamma {
			// Some interval lies wholly beyond M: posterior 0 there.
			return false
		}
		frac := M*gamma - mIdx + 1 // fraction of the M-cell below M
		switch p.Op {
		case synopsis.OpEq:
			s := float64(len(p.Set))
			y := (1 - 1/s) / (M * gamma) // P(x ∈ cell) for cells below M
			if mIdx > 1 {
				if !window.Safe(gamma * y) {
					return false
				}
			}
			if !window.Safe(gamma * (y*frac + 1/s)) {
				return false
			}
		default: // OpLt and OpLe: uniform on [0, M)
			y := 1 / (M * gamma)
			if mIdx > 1 {
				if !window.Safe(gamma * y) {
					return false
				}
			}
			if !window.Safe(gamma * y * frac) {
				return false
			}
		}
	}
	return true
}

// SampleConsistent draws a dataset uniformly from all datasets consistent
// with the synopsis: per equality predicate a uniformly chosen witness
// takes the bound and the rest fall uniformly below it; strict-predicate
// elements fall uniformly below their bound; unconstrained elements are
// uniform on [0,1].
func SampleConsistent(syn *synopsis.Max, n int, rng *rand.Rand) []float64 {
	xs := make([]float64, n)
	samplePreds(syn.Preds(), xs, make([]bool, n), rng)
	return xs
}

// samplePreds fills xs with one consistent dataset using caller-owned
// scratch (constrained is reset in place) — the allocation-free core of
// SampleConsistent used by the parallel decision loop, where preds is a
// per-decision snapshot shared read-only across workers.
func samplePreds(preds []synopsis.Pred, xs []float64, constrained []bool, rng *rand.Rand) {
	for i := range constrained {
		constrained[i] = false
	}
	for _, p := range preds {
		switch p.Op {
		case synopsis.OpEq:
			w := p.Set[rng.Intn(len(p.Set))]
			for _, i := range p.Set {
				if i == w {
					xs[i] = p.Value
				} else {
					xs[i] = rng.Float64() * p.Value
				}
				constrained[i] = true
			}
		default:
			for _, i := range p.Set {
				xs[i] = rng.Float64() * p.Value
				constrained[i] = true
			}
		}
	}
	for i := range xs {
		if !constrained[i] {
			xs[i] = rng.Float64()
		}
	}
}

// Decide implements audit.Auditor (Algorithm 2). The true answer is never
// consulted: answers are simulated from datasets consistent with the
// already-released history.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Max {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("maxprob: empty query set")
	}
	for _, i := range q.Set {
		if i < 0 || i >= a.n {
			return audit.Deny, fmt.Errorf("maxprob: index %d out of range", i)
		}
	}
	seed := a.NextSeed()
	preds := a.syn.Preds() // per-decision snapshot, read-only across workers
	out := mcpar.Vote(a.Config(seed), a.samples, a.Barrier(a.samples),
		func() *decideScratch {
			return &decideScratch{
				xs:          make([]float64, a.n),
				constrained: make([]bool, a.n),
				trial:       a.syn.Clone(),
			}
		},
		func(_ int, rng *rand.Rand, _ *randx.SplitMix, sc *decideScratch) bool {
			samplePreds(preds, sc.xs, sc.constrained, rng)
			if err := sc.trial.Fold(q.Set, maxOver(sc.xs, q.Set)); err != nil {
				// A sampled dataset is consistent by construction; Add can
				// only fail on float pathologies. Count as unsafe.
				return true
			}
			safe := SafeSynopsis(sc.trial, a.part, a.window)
			sc.trial.Rollback()
			return !safe
		})
	if out.Exceeded {
		return audit.Deny, nil
	}
	return audit.Answer, nil
}

// decideScratch is the per-lane reusable sample state of one Decide:
// the dataset buffers and the lane's copy of the trail, which each
// sample folds its answer into and rolls back.
type decideScratch struct {
	xs          []float64
	constrained []bool
	trial       *synopsis.Max
}

// Record implements audit.Auditor. Raw answers are normalized onto the
// internal [0,1] coordinates.
func (a *Auditor) Record(q query.Query, answer float64) {
	if err := a.syn.Add(q.Set, a.normalize(answer)); err != nil {
		panic(fmt.Sprintf("maxprob: recording true answer failed: %v", err))
	}
}

// Synopsis exposes a copy of the trail (tests and diagnostics).
func (a *Auditor) Synopsis() *synopsis.Max { return a.syn.Clone() }

func maxOver(xs []float64, s query.Set) float64 {
	best := xs[s[0]]
	for _, i := range s[1:] {
		if xs[i] > best {
			best = xs[i]
		}
	}
	return best
}
