// Package coloring implements the graph-coloring view of posterior
// inference for bags of max and min queries (Section 3.2, Lemmas 1–3).
//
// Each equality predicate of the combined synopsis becomes a node; its
// available colors are the elements of its query set that could actually
// attain its value. Two nodes are adjacent when their query sets
// intersect (and their values differ — a pinned element legitimately
// witnesses both of its singleton predicates). A valid coloring assigns
// each node a witness such that adjacent nodes pick different elements;
// the target distribution is
//
//	P̃(c) ∝ ∏_v ℓ_{c(v)},  ℓ_i = 1/|R_i|,
//
// and Lemma 1 shows that sampling a coloring from P̃, fixing the chosen
// witnesses, and filling every other element uniformly from its range
// samples a dataset exactly from the posterior P(X | B).
//
// The Markov chain is the paper's Metropolized single-site update: pick a
// node uniformly, propose a color from its palette with probability
// proportional to ℓ, accept iff the result stays valid. A proposal is one
// uniform draw and a binary search of the node's prefix sums of ℓ, so a
// step is O(log |palette|) plus the node's degree. Lemma 2 gives
// the stationarity of P̃; Lemma 3 gives O(k log k) mixing under the
// degree condition |S(v)| ≥ d_v + 2 that the auditor enforces by outright
// denial.
package coloring

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
)

// ErrNoValidColoring reports that no witness assignment satisfies the
// constraints — the synopsis state is inconsistent.
var ErrNoValidColoring = errors.New("coloring: no valid coloring exists")

// Node is one equality predicate in the coloring graph.
type Node struct {
	// Value is the predicate's answer A(v).
	Value float64
	// IsMax records which side the predicate came from (diagnostics).
	IsMax bool
	// Set is the predicate's full query set S(v).
	Set query.Set
	// Colors are the feasible witnesses, in ascending order: elements of
	// Set whose range admits Value.
	Colors []int
	// Weights[i] is ℓ_{Colors[i]} = 1/|R_{Colors[i]}| (pinned elements
	// get weight 1; they are forced anyway).
	Weights []float64
	// Cum[i] is Weights[0] + … + Weights[i], summed left to right: the
	// prefix sums a proposal binary-searches.
	Cum []float64
	// Adj lists adjacent node indices (intersecting sets, different
	// values).
	Adj []int
}

// Graph is the coloring graph of a synopsis.
type Graph struct {
	Nodes []Node
	// ranges[i] is element i's synopsis range.
	ranges []synopsis.Range
	preds  []synopsis.Pred
}

// Build constructs the coloring graph from a combined synopsis. Ranges
// (and hence weights) use the synopsis's ambient [α, β] bounds, which
// must be finite for weights to be meaningful.
func Build(b *synopsis.MaxMin) (*Graph, error) {
	g := new(Graph)
	if err := BuildInto(g, b); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildInto is Build into an existing graph, reusing its nodes' set,
// palette, weight, prefix-sum and adjacency slices and its range table:
// once they have grown to fit, it allocates nothing. The graph copies
// what it keeps, so it does not alias b. On error g's contents are
// unspecified.
func BuildInto(g *Graph, b *synopsis.MaxMin) error {
	if math.IsInf(b.Alpha(), 0) || math.IsInf(b.Beta(), 0) {
		return fmt.Errorf("coloring: synopsis must have finite data range, got [%g,%g]", b.Alpha(), b.Beta())
	}
	g.ranges = b.Ranges(g.ranges)
	var nmax int
	g.preds, nmax = b.AppendEqPreds(g.preds[:0])
	for k, p := range g.preds {
		if k < cap(g.Nodes) {
			g.Nodes = g.Nodes[:k+1]
		} else {
			g.Nodes = append(g.Nodes[:k], Node{})
		}
		v := &g.Nodes[k]
		v.Value, v.IsMax = p.Value, k < nmax
		v.Set = append(v.Set[:0], p.Set...)
		v.Colors = slices.Grow(v.Colors[:0], len(p.Set))
		v.Weights = slices.Grow(v.Weights[:0], len(p.Set))
		v.Cum = slices.Grow(v.Cum[:0], len(p.Set))
		v.Adj = v.Adj[:0]
		acc := 0.0
		for _, i := range p.Set {
			r := g.ranges[i]
			if !r.Contains(p.Value) {
				continue
			}
			w := 1.0
			if l := r.Length(); l > 0 {
				w = 1 / l
			}
			acc += w
			v.Colors = append(v.Colors, i)
			v.Weights = append(v.Weights, w)
			v.Cum = append(v.Cum, acc)
		}
		if len(v.Colors) == 0 {
			return ErrNoValidColoring
		}
	}
	g.Nodes = g.Nodes[:len(g.preds)]
	clear(g.preds) // drop the listing's references into b's sets
	// Adjacency: intersecting sets with different values. Same-side sets
	// are disjoint, so only max–min pairs can meet.
	for i := range g.Nodes {
		for j := i + 1; j < len(g.Nodes); j++ {
			if g.Nodes[i].Value == g.Nodes[j].Value {
				continue // the pinned singleton pair shares its witness
			}
			if g.Nodes[i].Set.Overlaps(g.Nodes[j].Set) {
				g.Nodes[i].Adj = append(g.Nodes[i].Adj, j)
				g.Nodes[j].Adj = append(g.Nodes[j].Adj, i)
			}
		}
	}
	return nil
}

// Range returns element i's synopsis range, read from the table Build
// computed.
func (g *Graph) Range(i int) synopsis.Range { return g.ranges[i] }

// paletteIndex returns the position of col in node vi's palette, or -1.
func (g *Graph) paletteIndex(vi, col int) int {
	cs := g.Nodes[vi].Colors
	if k := sort.SearchInts(cs, col); k < len(cs) && cs[k] == col {
		return k
	}
	return -1
}

// K returns the number of nodes (equality predicates).
func (g *Graph) K() int { return len(g.Nodes) }

// MeetsLemma2 reports whether every node satisfies the paper's degree
// condition |S(v)| ≥ d_v + 2 guaranteeing ergodicity and O(k log k)
// mixing. Forced nodes (a single feasible color) are exempt: the chain
// never needs to move them.
func (g *Graph) MeetsLemma2() bool {
	for _, v := range g.Nodes {
		if len(v.Colors) == 1 {
			continue
		}
		if len(v.Set) < len(v.Adj)+2 {
			return false
		}
	}
	return true
}

// Valid reports whether assignment c (node index → element) is a valid
// coloring: every node colored from its palette and no adjacent pair
// sharing an element.
func (g *Graph) Valid(c []int) bool {
	if len(c) != len(g.Nodes) {
		return false
	}
	for vi, v := range g.Nodes {
		if g.paletteIndex(vi, c[vi]) < 0 {
			return false
		}
		for _, u := range v.Adj {
			if c[u] == c[vi] {
				return false
			}
		}
	}
	return true
}

// Weight returns the unnormalized P̃ weight ∏ ℓ_{c(v)} of a coloring.
func (g *Graph) Weight(c []int) float64 {
	w := 1.0
	for vi, v := range g.Nodes {
		if k := g.paletteIndex(vi, c[vi]); k >= 0 {
			w *= v.Weights[k]
		}
	}
	return w
}

// InitialColoring finds some valid coloring by backtracking over nodes in
// most-constrained-first order. The attacker can run the same procedure,
// so using it keeps the auditor simulatable.
func (g *Graph) InitialColoring() ([]int, error) {
	k := len(g.Nodes)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	// Most constrained (fewest colors) first.
	for i := 1; i < k; i++ {
		for j := i; j > 0 && len(g.Nodes[order[j]].Colors) < len(g.Nodes[order[j-1]].Colors); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	c := make([]int, k)
	for i := range c {
		c[i] = -1
	}
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == k {
			return true
		}
		vi := order[pos]
		v := &g.Nodes[vi]
		for _, col := range v.Colors {
			clash := false
			for _, u := range v.Adj {
				if c[u] == col && g.Nodes[u].Value != v.Value {
					clash = true
					break
				}
			}
			if clash {
				continue
			}
			c[vi] = col
			if rec(pos + 1) {
				return true
			}
			c[vi] = -1
		}
		return false
	}
	if !rec(0) {
		return nil, ErrNoValidColoring
	}
	return c, nil
}

// ColoringFromDataset reconstructs the unique coloring a concrete dataset
// induces (Lemma 1's correspondence): each equality predicate's witness
// is the element attaining its value.
func (g *Graph) ColoringFromDataset(xs []float64) ([]int, error) {
	c := make([]int, len(g.Nodes))
	for vi, v := range g.Nodes {
		c[vi] = -1
		for _, i := range v.Set {
			if xs[i] == v.Value {
				c[vi] = i
				break
			}
		}
		if c[vi] == -1 {
			return nil, fmt.Errorf("coloring: dataset does not attain predicate value %g", v.Value)
		}
	}
	return c, nil
}

// SpaceSize returns the product of palette sizes — an upper bound on the
// number of colorings — saturating at cap.
func (g *Graph) SpaceSize(cap int) int {
	size := 1
	for _, v := range g.Nodes {
		size *= len(v.Colors)
		if size >= cap || size < 0 {
			return cap
		}
	}
	return size
}

// ExactWitnessProbs computes the exact marginal witness probabilities
// π_i(v) under P̃ by enumerating all valid colorings — the paper's
// Section 3.2 fallback for graphs that fail Lemma 2's degree condition
// ("it is also possible to convert the problem to one of inference …").
// It refuses (ok=false) when the coloring space exceeds limit. probs is
// indexed like the node palettes: probs[v][ci] is the probability node v
// picks its ci-th color.
func ExactWitnessProbs(g *Graph, limit int) (probs [][]float64, ok bool) {
	if g.SpaceSize(limit) >= limit {
		return nil, false
	}
	probs = make([][]float64, g.K())
	for v := range probs {
		probs[v] = make([]float64, len(g.Nodes[v].Colors))
	}
	var z float64
	c := make([]int, g.K())
	idx := make([]int, g.K())
	var rec func(v int, w float64)
	rec = func(v int, w float64) {
		if v == g.K() {
			z += w
			for u := range c {
				probs[u][idx[u]] += w
			}
			return
		}
		node := &g.Nodes[v]
	next:
		for ci, col := range node.Colors {
			for _, u := range node.Adj {
				if u < v && c[u] == col {
					continue next
				}
			}
			c[v] = col
			idx[v] = ci
			rec(v+1, w*node.Weights[ci])
		}
	}
	rec(0, 1)
	if z == 0 {
		return nil, false // no valid coloring: inconsistent state
	}
	for v := range probs {
		for ci := range probs[v] {
			probs[v][ci] /= z
		}
	}
	return probs, true
}

// Sampler runs the paper's Markov chain over valid colorings.
type Sampler struct {
	g *Graph
	// rng is bound at construction/Reset time by the owning worker.
	//auditlint:allow rngshare sampler is per-worker scratch; mcpar derives a fresh stream per worker per decision
	rng *rand.Rand
	c   []int
	// ci[v] is the position of c[v] in node v's palette.
	ci []int
}

// NewSampler builds a sampler starting from a backtracking-found valid
// coloring.
func NewSampler(g *Graph, rng *rand.Rand) (*Sampler, error) {
	c, err := g.InitialColoring()
	if err != nil {
		return nil, err
	}
	s := &Sampler{g: g, rng: rng}
	s.load(c)
	return s, nil
}

// NewSamplerFrom builds a sampler starting from the given valid coloring
// (e.g. the one induced by the true database state).
func NewSamplerFrom(g *Graph, rng *rand.Rand, c []int) (*Sampler, error) {
	if !g.Valid(c) {
		return nil, fmt.Errorf("coloring: initial coloring invalid")
	}
	s := &Sampler{g: g, rng: rng}
	s.load(c)
	return s, nil
}

// load copies the valid coloring c, and each color's palette position,
// into the sampler's buffers.
func (s *Sampler) load(c []int) {
	s.c = append(s.c[:0], c...)
	s.ci = s.ci[:0]
	for vi, col := range c {
		s.ci = append(s.ci, s.g.paletteIndex(vi, col))
	}
}

// Step performs one transition of the chain: pick a node uniformly,
// propose a color with probability ∝ ℓ, keep the old color if the
// proposal collides with a neighbor. The proposal is one draw scaled by
// the node's weight total and a binary search of its prefix sums, so a
// step costs O(log |palette| + degree); it picks the index
// randx.WeightedIndex would pick over the node's weights.
func (s *Sampler) Step() {
	k := len(s.g.Nodes)
	if k == 0 {
		return
	}
	vi := s.rng.Intn(k)
	v := &s.g.Nodes[vi]
	if len(v.Colors) == 1 {
		return
	}
	pick := randx.CumulativeIndex(s.rng, v.Cum)
	if pick < 0 {
		return
	}
	col := v.Colors[pick]
	for _, u := range v.Adj {
		if s.c[u] == col {
			return // invalid proposal: stay
		}
	}
	s.c[vi], s.ci[vi] = col, pick
}

// MixSteps returns the O(k log k) step budget with the given constant
// factor (Lemma 3).
func MixSteps(k int, factor float64) int {
	if k <= 1 {
		return 1
	}
	return int(math.Ceil(factor * float64(k) * math.Log(float64(k)+1)))
}

// Mix advances the chain by MixSteps(k, factor) transitions.
func (s *Sampler) Mix(factor float64) {
	for i, n := 0, MixSteps(len(s.g.Nodes), factor); i < n; i++ {
		s.Step()
	}
}

// Coloring returns a copy of the current coloring.
func (s *Sampler) Coloring() []int { return append([]int(nil), s.c...) }

// Current returns the live coloring without copying. The slice aliases the
// sampler's state: callers must read it before the next Step and never
// mutate it. It exists for hot loops (witness-probability counting) where
// the per-iteration copy of Coloring dominates the profile.
func (s *Sampler) Current() []int { return s.c }

// CurrentIndices is Current as palette positions: entry v is the index
// of node v's color in its Colors, so per-color tallies need no palette
// search. The same aliasing rules apply.
func (s *Sampler) CurrentIndices() []int { return s.ci }

// Reset rebases the sampler for reuse: randomness moves onto rng and the
// coloring is restored to c (copied into the existing buffer). It is the
// per-sample path of the parallel Monte Carlo workers, which keep one
// sampler per worker and rebase it onto a fresh random stream for every
// sample.
func (s *Sampler) Reset(rng *rand.Rand, c []int) error {
	if !s.g.Valid(c) {
		return fmt.Errorf("coloring: reset coloring invalid")
	}
	s.rng = rng
	s.load(c)
	return nil
}

// SampleDataset draws a full dataset from P(X | B) given the current
// coloring (Lemma 1): witnesses take their predicate values; every other
// element is uniform on its range.
func (s *Sampler) SampleDataset(rng *rand.Rand) []float64 {
	return DatasetFromColoring(s.g, s.c, rng)
}

// SampleDatasetInto is SampleDataset over caller-owned buffers (both of
// length n) — the allocation-free path of the parallel workers.
func (s *Sampler) SampleDatasetInto(rng *rand.Rand, xs []float64, fixed []bool) {
	DatasetFromColoringInto(s.g, s.c, rng, xs, fixed)
}

// DatasetFromColoring implements Lemma 1's steps 2–3 for an arbitrary
// valid coloring.
func DatasetFromColoring(g *Graph, c []int, rng *rand.Rand) []float64 {
	xs := make([]float64, len(g.ranges))
	fixed := make([]bool, len(g.ranges))
	DatasetFromColoringInto(g, c, rng, xs, fixed)
	return xs
}

// DatasetFromColoringInto is DatasetFromColoring over caller-owned scratch
// (fixed is reset in place).
func DatasetFromColoringInto(g *Graph, c []int, rng *rand.Rand, xs []float64, fixed []bool) {
	for i := range fixed {
		fixed[i] = false
	}
	for vi, v := range g.Nodes {
		xs[c[vi]] = v.Value
		fixed[c[vi]] = true
	}
	for i, r := range g.ranges {
		if fixed[i] {
			continue
		}
		if r.Pinned() {
			xs[i] = r.Lo
			continue
		}
		xs[i] = r.Lo + rng.Float64()*(r.Hi-r.Lo)
	}
}
