// Package sumprob implements the probabilistic (partial-disclosure) sum
// auditor of [Kenthapadi–Mishra–Nissim '05] that this paper's Section 3
// improves upon: data uniform on [0,1]^n, answered sum queries carving
// the consistent-dataset polytope, and a simulatable decision rule that
// estimates — by sampling that polytope — whether answering the new
// query would push any element's interval posterior outside the
// λ-window.
//
// The auditor is deliberately the expensive comparator: every decision
// runs nested hit-and-run sampling over convex polytopes, which is what
// the paper means by its max auditor being "decidedly more efficient".
// BenchmarkProbSumVsMax quantifies the gap.
//
// # Decision hot path
//
// The outer Monte Carlo loop runs on the shared decision scheduler
// (internal/mcpar). All row-dependent factorization work is hoisted out
// of the sample loop: the base polytope's shape is cached ACROSS
// decisions (it changes only when Record appends a row), and the
// extended system's shape — history rows plus the queried row — is built
// once per decision. Each sample then only binds the extended shape to
// its simulated answer: the outer walker's position is an exact feasible
// point of the extended system (the answer is computed from it), so the
// per-sample feasibility search converges in a projection or two, and
// the inner chain starts from an exact conditional draw instead of
// burning in cold. Consecutive decisions additionally reuse the
// posterior chain state: the outer chain of decision t+1 starts where
// decision t's equilibrated chain ended (a deterministic function of the
// decision history, so journal replay reproduces it bit-for-bit).
//
// Every sample draws from a counter-based stream keyed by (decision
// seed, sample index), so the decision is bit-identical at any worker
// count.
package sumprob

import (
	"fmt"
	"math"
	"math/rand"

	"queryaudit/internal/audit"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// Params configure the (λ, δ, γ, T) game and the Monte Carlo effort.
type Params struct {
	mcpar.Game
	// OuterSamples hypothetical datasets per decision (0 → 12).
	OuterSamples int
	// InnerSamples polytope points per posterior estimate (0 → 200).
	InnerSamples int
	// BurnIn hit-and-run steps before collecting on a COLD chain (0 →
	// 50 + 5·dim). Warm-started chains (posterior reuse across a
	// session's decisions, and the per-sample inner chains, which start
	// from an exact conditional draw) equilibrate with 3·Thin steps.
	BurnIn int
	// Thin steps between collected points (0 → max(4, dim), since the
	// walk's autocorrelation grows with the polytope dimension).
	Thin int
}

func (p Params) outer() int {
	if p.OuterSamples > 0 {
		return p.OuterSamples
	}
	return 12
}

func (p Params) inner() int {
	if p.InnerSamples > 0 {
		return p.InnerSamples
	}
	return 200
}

func (p Params) burnIn(dim int) int {
	if p.BurnIn > 0 {
		return p.BurnIn
	}
	return 50 + 5*dim
}

func (p Params) thin(dim int) int {
	if p.Thin > 0 {
		return p.Thin
	}
	if dim > 4 {
		return dim
	}
	return 4
}

// Auditor is the [21]-style probabilistic sum auditor.
type Auditor struct {
	mcpar.Shell
	n int
	// params holds the sampling effort; its game is the shell's as New
	// received it.
	params Params
	part   interval.Partition
	rows   [][]float64
	b      []float64

	// Base-system cache, valid while len(rows) == baseRows. Every field
	// is a pure function of the Decide/Record history (never of wall
	// time or worker count), so journal replay rebuilds it exactly.
	baseShape *shape
	basePoly  *polytope
	baseRows  int
	// lastX is the end of the previous decision's equilibrated outer
	// chain — the posterior state the next decision's chains resume from.
	lastX []float64
}

// New returns an auditor over n records uniform on [0,1].
func New(n int, params Params) (*Auditor, error) {
	sh, err := mcpar.NewShell(params.Game)
	if err != nil {
		return nil, fmt.Errorf("sumprob: %w", err)
	}
	return &Auditor{
		Shell:    sh,
		n:        n,
		params:   params,
		part:     interval.NewPartition(0, 1, params.Gamma),
		baseRows: -1,
	}, nil
}

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "sum-partial-disclosure" }

// N returns the number of records.
func (a *Auditor) N() int { return a.n }

// rowOf converts a query set into a 0/1 constraint row.
func (a *Auditor) rowOf(s query.Set) []float64 {
	row := make([]float64, a.n)
	for _, i := range s {
		row[i] = 1
	}
	return row
}

// safeForExt estimates, by sampling the pre-factored extended system
// bound to the simulated answer vector extB, whether every element's
// interval posterior stays inside the λ-window. start must be a feasible
// point of the extended system — the outer walker's position, whose
// answer entry was computed from it — which makes the instantiation a
// projection polish and lets the chain skip the cold burn-in: start is
// an exact draw from the extended polytope's distribution.
func (a *Auditor) safeForExt(sh *shape, extB, start []float64, rng *rand.Rand, sc *decideScratch) (bool, error) {
	if err := sh.instantiateInto(&sc.ext, extB, start, rng); err != nil {
		return false, err
	}
	if sc.ext.dim() == 0 {
		// Fully determined dataset: every posterior is a point mass.
		return false, nil
	}
	dim := sc.ext.dim()
	thin := a.params.thin(dim)
	steps := a.params.inner() * thin
	gamma := a.Gamma
	// Batch-means accounting: the chord stream is autocorrelated, so the
	// Monte Carlo error of each cell estimate is taken from the spread
	// of per-batch means, not from a binomial formula.
	const batches = 8
	perBatch := steps / batches
	if perBatch < 1 {
		perBatch = 1
	}
	need := batches * a.n * gamma
	if cap(sc.sums) < need {
		sc.sums = make([]float64, need)
	}
	sums := sc.sums[:need]
	for i := range sums {
		sums[i] = 0
	}
	if cap(sc.used) < batches {
		sc.used = make([]int, batches)
	}
	used := sc.used[:batches]
	for i := range used {
		used[i] = 0
	}
	sc.extW.rebase(&sc.ext)
	w := &sc.extW
	for s := 0; s < 3*thin; s++ {
		w.step(rng)
	}
	// Rao–Blackwellized chord estimator: every step contributes the exact
	// conditional cell probabilities of each coordinate along its chord.
	cellW := a.part.Width()
	stride := a.n * gamma
	for s := 0; s < batches*perBatch; s++ {
		bi := s / perBatch
		x, d, lo, hi, ok := w.stepChord(rng)
		if !ok {
			continue
		}
		used[bi]++
		cb := sums[bi*stride : (bi+1)*stride]
		for i := 0; i < a.n; i++ {
			aEnd := x[i] + lo*d[i]
			bEnd := x[i] + hi*d[i]
			if aEnd > bEnd {
				aEnd, bEnd = bEnd, aEnd
			}
			if bEnd-aEnd < 1e-12 {
				j := a.part.CellIndex(x[i])
				if j >= 1 {
					cb[i*gamma+j-1]++
				}
				continue
			}
			inv := 1 / (bEnd - aEnd)
			// Only the cells the segment overlaps contribute; chord
			// endpoints sit in [0,1] up to clamping slack, so the index
			// window needs clamping, not the arithmetic.
			jLo := int(aEnd / cellW)
			if jLo < 0 {
				jLo = 0
			}
			jHi := int(bEnd / cellW)
			if jHi >= gamma {
				jHi = gamma - 1
			}
			for j := jLo; j <= jHi; j++ {
				oLo := float64(j) * cellW
				oHi := oLo + cellW
				if aEnd > oLo {
					oLo = aEnd
				}
				if bEnd < oHi {
					oHi = bEnd
				}
				if oHi > oLo {
					cb[i*gamma+j] += (oHi - oLo) * inv
				}
			}
		}
	}
	// Declare a cell unsafe only when the breach is statistically clear:
	// the batch-mean must sit more than three batch standard errors
	// outside the window (the Monte Carlo analogue of [21]'s
	// approximation slack, honest about chain autocorrelation).
	prior := a.part.Prior()
	lowEdge := (1 - a.Lambda) * prior
	highEdge := prior / (1 - a.Lambda)
	for i := 0; i < a.n; i++ {
		for j := 0; j < gamma; j++ {
			mean, se := batchStats(sums, used, stride, i*gamma+j)
			if se < 0 {
				return false, nil // no usable samples
			}
			if mean < lowEdge-3*se || mean > highEdge+3*se {
				return false, nil
			}
		}
	}
	return true, nil
}

// batchStats returns the across-batch mean and standard error of the
// cell at offset off (flat batches×stride layout); se is negative when
// no batch collected samples.
func batchStats(sums []float64, used []int, stride, off int) (mean, se float64) {
	cnt := 0
	for b := range used {
		if used[b] == 0 {
			continue
		}
		mean += sums[b*stride+off] / float64(used[b])
		cnt++
	}
	if cnt == 0 {
		return 0, -1
	}
	mean /= float64(cnt)
	if cnt < 2 {
		return mean, 0.5 // single batch: no spread information, max slack
	}
	varSum := 0.0
	for b := range used {
		if used[b] == 0 {
			continue
		}
		m := sums[b*stride+off]/float64(used[b]) - mean
		varSum += m * m
	}
	se = math.Sqrt(varSum / float64(cnt-1) / float64(cnt))
	return mean, se
}

// Decide implements audit.Auditor: sample consistent datasets, simulate
// the answer each would give, and deny when too many simulated answers
// would breach the λ-window.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Sum {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("sumprob: empty query set")
	}
	for _, i := range q.Set {
		if i < 0 || i >= a.n {
			return audit.Deny, fmt.Errorf("sumprob: index %d out of range", i)
		}
	}
	// Decision-level randomness splits into two decorrelated streams: one
	// seeds the per-sample streams inside the engine, the other drives the
	// one-off setup work (cold feasible-point search, chain-state advance).
	decSeed := a.NextSeed()
	voteSeed := randx.DeriveSeed(decSeed, 0)
	setupRng := randx.Stream(decSeed, 1)

	// Base system: rebuilt only when Record appended a row since the last
	// decision; otherwise this decision reuses the cached factorization
	// AND the previous decision's equilibrated chain state.
	warm := a.baseShape != nil && a.baseRows == len(a.rows)
	if !warm {
		sh, err := newShape(a.rows, a.n)
		if err != nil {
			return audit.Deny, err
		}
		p, err := sh.instantiate(a.b, nil, setupRng)
		if err != nil {
			return audit.Deny, err
		}
		a.baseShape, a.basePoly, a.baseRows = sh, p, len(a.rows)
		a.lastX = append(a.lastX[:0], p.x0...)
	}
	base := a.basePoly

	// Extended system = history rows + the queried row, factored ONCE per
	// decision; each sample only re-binds its answer entry.
	newRow := a.rowOf(q.Set)
	extRows := append(append([][]float64{}, a.rows...), newRow)
	extShape, err := newShape(extRows, a.n)
	if err != nil {
		return audit.Deny, err
	}

	budget := a.params.outer()
	dim := base.dim()
	thin := a.params.thin(dim)
	burn := 3 * thin
	if !warm {
		burn = a.params.burnIn(dim)
	}
	startX := a.lastX // read-only across workers during the vote
	out := mcpar.Vote(a.Config(voteSeed), budget, a.Barrier(budget),
		func() *decideScratch {
			sc := &decideScratch{
				w:    base.newWalker(),
				extB: make([]float64, len(a.b)+1),
			}
			return sc
		},
		func(_ int, rng *rand.Rand, _ *randx.SplitMix, sc *decideScratch) bool {
			// Independent chain per sample: resume from the session's
			// posterior state, equilibrate, and read one hypothetical
			// dataset.
			sc.w.resetTo(startX)
			for t := 0; t < burn+3*thin; t++ {
				sc.w.step(rng)
			}
			x := sc.w.point()
			ans := 0.0
			for _, i := range q.Set {
				ans += x[i]
			}
			copy(sc.extB, a.b)
			sc.extB[len(a.b)] = ans
			ok, serr := a.safeForExt(extShape, sc.extB, x, rng, sc)
			return serr != nil || !ok
		})

	// Advance the shared chain state for the next decision: equilibrate a
	// fresh stretch from the current state with the setup stream. Pure
	// function of the decision history — replay lands on the same point.
	{
		w := base.newWalker()
		w.resetTo(a.lastX)
		for t := 0; t < 3*thin; t++ {
			w.step(setupRng)
		}
		a.lastX = append(a.lastX[:0], w.point()...)
	}

	if out.Exceeded {
		return audit.Deny, nil
	}
	return audit.Answer, nil
}

// decideScratch is the per-lane reusable state of Decide: a hit-and-run
// walker over the shared base polytope, the extended answer vector, a
// reusable extended-system instance with its own walker, and the flat
// batch-means accumulators of the inner estimator.
type decideScratch struct {
	w    *walker
	extB []float64
	ext  polytope
	extW walker
	sums []float64
	used []int
}

// Record implements audit.Auditor. Appending a row invalidates the
// cached base factorization; the next Decide rebuilds it (and restarts
// its chains cold).
func (a *Auditor) Record(q query.Query, answer float64) {
	a.rows = append(a.rows, a.rowOf(q.Set))
	a.b = append(a.b, answer)
}
