package core

import (
	"flag"
	"strings"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
)

// TestRegisterFlags: the nine stack flags parsed with no arguments leave
// exactly DefaultStackConfig, and each sets its own field.
func TestRegisterFlags(t *testing.T) {
	withProb := DefaultStackConfig()
	withProb.Family, withProb.T, withProb.ProbSeed = "prob", 5, 9
	cases := []struct {
		args string
		want StackConfig
	}{
		{"", DefaultStackConfig()},
		{"-auditors prob -prob-t 5 -prob-seed 9", withProb},
		{
			"-auditors prob -n 7 -seed 3 -mc-workers 2 -prob-lambda 0.5 -prob-gamma 6 -prob-delta 0.1 -prob-t 4 -prob-seed 8",
			StackConfig{
				Family: "prob", N: 7, Seed: 3, MCWorkers: 2,
				Lambda: 0.5, Gamma: 6, Delta: 0.1, T: 4, ProbSeed: 8,
			},
		},
	}
	for _, tc := range cases {
		c := DefaultStackConfig()
		fs := flag.NewFlagSet("stack", flag.ContinueOnError)
		c.RegisterFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatal(err)
		}
		if c != tc.want {
			t.Errorf("%q: %+v, want %+v", tc.args, c, tc.want)
		}
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n != 9 {
			t.Fatalf("RegisterFlags declared %d flags, want 9", n)
		}
	}
}

// TestRegisterAuditorsForwardsGame: the prob stack's auditors are the
// ones StackConfig documents — maxminprob keyed by ProbSeed and sumprob
// by ProbSeed+1, both playing the stack's game with its MCWorkers. They
// hold that game, and they make the decisions and evaluate the samples
// of auditors built directly from it.
func TestRegisterAuditorsForwardsGame(t *testing.T) {
	c := DefaultStackConfig()
	c.Family, c.N, c.MCWorkers, c.ProbSeed = "prob", 24, 1, 7
	mmGame := mcpar.Game{
		Lambda: c.Lambda, Gamma: c.Gamma, Delta: c.Delta, T: c.T,
		Workers: 1, Seed: 7,
	}
	sumGame := mmGame
	sumGame.Seed = 8

	ds := c.NewDataset()
	stack := NewEngineSpec(ds)
	if err := c.RegisterAuditors(stack); err != nil {
		t.Fatal(err)
	}
	direct := NewEngineSpec(ds)
	direct.Register(func() (audit.Auditor, error) {
		return maxminprob.New(c.N, maxminprob.Params{Game: mmGame})
	}, query.Max, query.Min)
	direct.Register(func() (audit.Auditor, error) {
		return sumprob.New(c.N, sumprob.Params{Game: sumGame})
	}, query.Sum)
	build := func(sp *EngineSpec) (*Engine, *metrics.Registry) {
		reg := metrics.NewRegistry()
		sp.SetMCObserver(metrics.NewMCCollector(reg))
		eng, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		return eng, reg
	}
	got, gotReg := build(stack)
	want, wantReg := build(direct)

	mm, _ := got.Auditor(query.Max)
	if g := mm.(*maxminprob.Auditor).Game; g != mmGame {
		t.Errorf("max∧min auditor plays %+v, want %+v", g, mmGame)
	}
	sum, _ := got.Auditor(query.Sum)
	if g := sum.(*sumprob.Auditor).Game; g != sumGame {
		t.Errorf("sum auditor plays %+v, want %+v", g, sumGame)
	}

	span := func(lo, hi int) []int {
		var s []int
		for i := lo; i < hi; i++ {
			s = append(s, i)
		}
		return s
	}
	qs := []query.Query{
		query.New(query.Max, span(0, 24)...),
		query.New(query.Min, span(0, 24)...),
		query.New(query.Max, span(0, 12)...),
		query.New(query.Min, span(12, 24)...),
		query.New(query.Max, span(4, 20)...),
		query.New(query.Sum, span(0, 24)...),
		query.New(query.Sum, span(0, 12)...),
		query.New(query.Sum, span(6, 18)...),
	}
	for _, q := range qs {
		g, err := got.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Errorf("%v %v: stack gave %+v, direct auditors %+v", q.Kind, q.Set, g, w)
		}
	}
	gs, ws := gotReg.Snapshot().Counters, wantReg.Snapshot().Counters
	for _, name := range []string{"mc_decisions_total", "mc_samples_total", "mc_unsafe_votes_total"} {
		if gs[name] != ws[name] {
			t.Errorf("%s: stack %d, direct auditors %d", name, gs[name], ws[name])
		}
	}
	t.Logf("%d answered, %d denied, counters %v", got.Answered(), got.Denied(), gs)
}
