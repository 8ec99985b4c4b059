package maxminprob

import (
	"testing"

	"queryaudit/internal/query"
)

// TestOneSideBoundedRangeIsConstrained pins the range-only λ-window
// verdict of an element that carries no witness mass. An element whose
// range is all of [0,1] keeps the prior and is safe; an element bounded
// on one side only — [0, h] with h < 1 under an answered max, [l, 1]
// with l > 0 under an answered min — has its posterior piled on part of
// [0,1] and must count as constrained: here that breaks the window.
func TestOneSideBoundedRangeIsConstrained(t *testing.T) {
	const n = 12
	for _, c := range []struct {
		name string
		q    query.Query
		ans  float64
	}{
		{"max bounds above", query.New(query.Max, 0, 1), 0.3},
		{"min bounds below", query.New(query.Min, 0, 1), 0.7},
	} {
		a, err := New(n, params())
		if err != nil {
			t.Fatal(err)
		}
		a.Record(c.q, c.ans)
		ps := new(posterior)
		ps.load(a.syn, a.params, nil)
		if ps.err != nil {
			t.Fatal(ps.err)
		}
		if r := ps.g.Range(0); (r.Lo > 0) == (r.Hi < 1) {
			t.Fatalf("%s: element 0 has range [%g, %g], want one side bounded", c.name, r.Lo, r.Hi)
		}
		if v := a.fillElement(ps, 0); v != unsafe {
			t.Fatalf("%s: range-only verdict %v for a one-side-bounded element, want unsafe", c.name, v)
		}
		if v := a.fillElement(ps, n-1); v != safe {
			t.Fatalf("%s: range-only verdict %v for an unconstrained element, want safe", c.name, v)
		}
		// No node carries witness mass: every element is judged by its
		// range alone.
		probs := make([][]float64, ps.g.K())
		for v := range probs {
			probs[v] = make([]float64, len(ps.g.Nodes[v].Colors))
		}
		ps.rangeOnly = make([]verdict, n)
		if a.safeWindow(ps, probs) {
			t.Fatalf("%s: λ-window safe with a one-side-bounded element and no witness mass", c.name)
		}
	}
}
