package lint

import "testing"

// TestDecisionPathsStayDeterministic is the determinism regression
// guard: the packages that decide or sample — the auditors, the Monte
// Carlo engine, the coloring sampler — must stay free of unsuppressed
// detrand and rngshare findings. Replay, digest chains and replication
// (PRs 2–4) all assume decisions are a pure function of history (§2.2);
// a wall-clock read or a scheduler-dependent RNG draw sneaking into a
// decision path silently breaks every one of those layers, so the lint
// invariant is pinned here as a plain test, not only in `make lint`.
func TestDecisionPathsStayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go list loader; skipped in -short")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadPackages(root, "./internal/audit/...", "./internal/auditlog", "./internal/mcpar", "./internal/coloring")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(prog, []*Analyzer{Detrand(DecisionPathPrefixes), RNGShare()})
	for _, f := range findings {
		t.Errorf("decision path regression: %s", f)
	}
	if len(findings) > 0 {
		t.Log("fix the nondeterminism (preferred) or justify it with //auditlint:allow <analyzer> <reason>")
	}
}

// TestServiceLayersStayConcurrencyClean pins the concurrency-discipline
// invariants the same way: the replication layer — the package that
// spawns followers, janitors and mirror workers and nests the deepest
// lock chains — must stay free of unsuppressed ctxleak and
// lockorder findings. A ghost goroutine surviving a demotion, or a
// lock-order cycle between the journal and the session table, is a
// split-history bug replication cannot detect from inside.
func TestServiceLayersStayConcurrencyClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go list loader; skipped in -short")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadPackages(root, "./internal/replica/...")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(prog, []*Analyzer{CtxLeak(CtxLeakPrefixes), LockOrder()})
	for _, f := range findings {
		t.Errorf("service layer regression: %s", f)
	}
	if len(findings) > 0 {
		t.Log("bound the goroutine / order the locks (preferred) or justify with //auditlint:allow <analyzer> <reason>")
	}
}
