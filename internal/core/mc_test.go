package core

import (
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxprob"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// TestEngineMCForwarding: Build hands the spec's Monte Carlo workers,
// collector and scheduler to each probabilistic auditor it builds, and
// skips the exact-disclosure family.
func TestEngineMCForwarding(t *testing.T) {
	const n = 10
	ds := dataset.UniformDuplicateFree(randx.New(1), n, 0, 1)
	sp := NewEngineSpec(ds)
	params := maxprob.Params{Game: mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Workers: 1}}
	sp.Register(func() (audit.Auditor, error) { return maxprob.New(n, params) }, query.Max, query.Min)
	sp.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Sum)
	reg := metrics.NewRegistry()
	sched := mcpar.NewScheduler(2)
	defer sched.Close()
	sched.SetObserver(metrics.NewSchedCollector(reg))
	sp.SetMCObserver(metrics.NewMCCollector(reg))
	sp.SetMCWorkers(4)
	sp.SetMCScheduler(sched)
	eng, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ask(query.New(query.Max, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["mc_decisions_total"]; got != 1 {
		t.Fatalf("mc_decisions_total = %d, want 1", got)
	}
	// Workers 4 overrides Params.Workers 1: the decision offers the
	// scheduler its 3 assist tokens.
	if got := snap.Counters["mcsched_tokens_total"]; got != 3 {
		t.Fatalf("mcsched_tokens_total = %d, want 3", got)
	}
}
