package maxminprob

import (
	"math"
	"math/bits"
	"slices"

	"queryaudit/internal/coloring"
	"queryaudit/internal/interval"
)

// boundMargin is how far below the exact worst-case witness mass an
// element's mass bound sits. It dwarfs the rounding of the per-cell
// posteriors, whose terms are sums of at most a few dozen masses in
// [0,1]: relative errors of order 1e-15.
const boundMargin = 1e-9

// window is the λ-window of one trial state, split so that a sample pays
// for the witness entries its chain hit and for nothing else.
//
// What depends on the ranges alone is computed once per state, per range
// class: the elements whose ranges have the same (Lo, Hi) bits share
// their Γ overlap fractions f_j, their range-only verdict and a mass
// bound. An element of witness mass W has posterior
// (1−W)·f_j + M_j on cell j, where M_j ∈ [0, W] is the part of W whose
// values fall in cell j. The lower end of the window holds for any
// placement when (1−W)·f_j ≥ (1−λ)·prior, the upper end when
// f_j + W·(1−f_j) ≤ prior/(1−λ), so an element whose W is below
//
//	min_j min(1 − (1−λ)·prior/f_j, (prior/(1−λ) − f_j)/(1 − f_j)) − boundMargin
//
// passes in every cell, wherever its witnesses fall. A class with some
// f_j ∉ (0,1) gets no bound (−∞).
//
// A sample walks the witness counts, sums each hit element's mass,
// requires every element whose range alone breaks the window to carry
// mass, and runs the exact per-cell loop, over the element's entries in
// node order, only for the hit elements at or above their class's bound
// (under 1% of them on prob-300): that loop is the one the window always
// ran, so the verdict is the same, bit for bit.
type window struct {
	// class[i] is element i's range class, an index into fracs (Γ per
	// class), bound and rangeSafe.
	class     []int32
	fracs     []float64
	bound     []float64
	rangeSafe []bool
	// rangeUnsafe lists the elements whose range alone breaks the window.
	rangeUnsafe []int32
	// keys[c] is class c's (Lo, Hi) bits, and slots an open-addressing
	// table over them with linear probing: a class + 1, 0 when free. It
	// has a power-of-two size of at least 2n slots, so it never fills.
	keys  [][2]uint64
	slots []int32

	// Per-sample scratch: mass[i] is element i's summed witness count,
	// zero again after every pass; touched lists the elements hit, and
	// entries one element's witness probabilities for the exact loop.
	mass    []float64
	touched []int32
	entries []witnessMass
}

// witnessMass is one node's witness probability on one element.
type witnessMass struct {
	value float64
	p     float64
}

// load computes w's range classes for graph g over the auditor's cells.
func (w *window) load(a *Auditor, g *coloring.Graph) {
	n, gamma := a.n, len(a.cells)
	if len(w.slots) < 2*n {
		w.slots = make([]int32, 1<<bits.Len(uint(2*n)))
	}
	clear(w.slots)
	shift := 64 - bits.TrailingZeros(uint(len(w.slots)))
	w.class = slices.Grow(w.class[:0], n)[:n]
	w.keys, w.fracs, w.bound, w.rangeSafe = w.keys[:0], w.fracs[:0], w.bound[:0], w.rangeSafe[:0]
	w.rangeUnsafe = w.rangeUnsafe[:0]
	for i := 0; i < n; i++ {
		r := g.Range(i)
		key := [2]uint64{math.Float64bits(r.Lo), math.Float64bits(r.Hi)}
		h := int((key[0]*0x9E3779B97F4A7C15 ^ key[1]*0xBF58476D1CE4E5B9) >> shift)
		for w.slots[h] != 0 && w.keys[w.slots[h]-1] != key {
			h = (h + 1) & (len(w.slots) - 1)
		}
		c := w.slots[h] - 1
		if c < 0 {
			c = int32(len(w.keys))
			w.slots[h] = c + 1
			w.keys = append(w.keys, key)
			iv := interval.Interval{Lo: r.Lo, Hi: r.Hi}
			safe := true
			for _, cell := range a.cells {
				f := iv.OverlapFraction(cell)
				w.fracs = append(w.fracs, f)
				safe = safe && a.window.SafePosterior(f, a.prior)
			}
			// An element whose range is all of [0,1] and that carries no
			// witness mass has posterior equal to prior, so it is safe.
			w.rangeSafe = append(w.rangeSafe, safe || r.Lo <= 0 && r.Hi >= 1)
			w.bound = append(w.bound, massBound(w.fracs[len(w.fracs)-gamma:], a.prior, a.Lambda))
		}
		w.class[i] = c
		if !w.rangeSafe[c] {
			w.rangeUnsafe = append(w.rangeUnsafe, int32(i))
		}
	}
	if len(w.mass) != n {
		w.mass = make([]float64, n)
	}
}

// massBound returns the witness mass below which an element with overlap
// fractions fracs passes the λ-window in every cell (see window), or −∞
// when some fraction is not in (0,1).
func massBound(fracs []float64, prior, lambda float64) float64 {
	b := math.Inf(1)
	for _, f := range fracs {
		if !(f > 0 && f < 1) {
			return math.Inf(-1)
		}
		b = min(b, 1-(1-lambda)*prior/f, (prior/(1-lambda)-f)/(1-f))
	}
	return b - boundMargin
}

// safeWindow reports whether the witness probabilities counts[v][ci] /
// scale of ps's graph keep every element inside the λ-window; an entry
// is a hit when its count is positive.
func (a *Auditor) safeWindow(ps *posterior, counts [][]float64, scale float64) bool {
	w := &ps.win
	w.touched = w.touched[:0]
	for v := range ps.g.Nodes {
		colors := ps.g.Nodes[v].Colors
		for ci, count := range counts[v] {
			if count <= 0 {
				continue
			}
			col := colors[ci]
			if w.mass[col] <= 0 { // first hit: the mass is still cleared
				w.touched = append(w.touched, int32(col))
			}
			w.mass[col] += count
		}
	}
	ok := a.windowVerdict(ps, counts, scale)
	for _, i := range w.touched {
		w.mass[i] = 0
	}
	return ok
}

// windowVerdict is safeWindow's verdict once each hit element's summed
// count is in ps.win.mass. Its mass against its class's bound is that sum
// over the scale, within a few ulps of the sum of its probabilities: far
// inside the bound's margin.
func (a *Auditor) windowVerdict(ps *posterior, counts [][]float64, scale float64) bool {
	w := &ps.win
	for _, i := range w.rangeUnsafe {
		if w.mass[i] <= 0 {
			return false
		}
	}
	gamma := len(a.cells)
	for _, i := range w.touched {
		c := w.class[i]
		if w.mass[i] < w.bound[c]*scale {
			continue
		}
		if !a.safeCells(w.fracs[int(c)*gamma:int(c+1)*gamma], w.gather(&ps.g, int(i), counts, scale)) {
			return false
		}
	}
	return true
}

// gather returns element i's witness probabilities, counts/scale in
// node order, in w's entry buffer.
func (w *window) gather(g *coloring.Graph, i int, counts [][]float64, scale float64) []witnessMass {
	w.entries = w.entries[:0]
	for v := range g.Nodes {
		node := &g.Nodes[v]
		if ci, ok := slices.BinarySearch(node.Colors, i); ok && counts[v][ci] > 0 {
			w.entries = append(w.entries, witnessMass{value: node.Value, p: counts[v][ci] / scale})
		}
	}
	return w.entries
}

// safeCells is the exact λ-window of an element with overlap fractions
// fracs and witness entries wit: its posterior on each cell is the free
// mass's share of the cell plus the entries whose values fall in it.
func (a *Auditor) safeCells(fracs []float64, wit []witnessMass) bool {
	var witTotal float64
	for _, m := range wit {
		witTotal += m.p
	}
	free := 1 - witTotal
	last := len(a.cells) - 1
	for j, cell := range a.cells {
		post := free * fracs[j]
		for _, m := range wit {
			//auditlint:allow floateq final partition cell is closed at beta; the exact-endpoint test mirrors interval.CellIndex
			if m.value >= cell.Lo && (m.value < cell.Hi || (j == last && m.value == cell.Hi)) {
				post += m.p
			}
		}
		if !a.window.SafePosterior(post, a.prior) {
			return false
		}
	}
	return true
}
