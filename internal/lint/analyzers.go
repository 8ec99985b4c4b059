package lint

// Module-specific analyzer configuration: which import paths count as
// decision paths, which as probability/bound arithmetic, and which
// package owns raw file writes. New decision-path packages must be added
// here (the determinism regression test in guard_test.go pins the
// current set).

// DecisionPathPrefixes are the packages whose code decides or samples:
// everything under the auditors, the coloring sampler, the Monte Carlo
// engine, the attack game, and the retrospective pipeline
// (reports are reproducible artifacts: same inputs, same bytes).
// detrand runs here.
var DecisionPathPrefixes = []string{
	"queryaudit/internal/audit",
	"queryaudit/internal/auditlog",
	"queryaudit/internal/coloring",
	"queryaudit/internal/mcpar",
	"queryaudit/internal/game",
}

// FloatEqPrefixes are the packages doing probability and bound
// arithmetic, where exact float comparison is suspect. floateq runs
// here.
var FloatEqPrefixes = []string{
	"queryaudit/internal/audit",
	"queryaudit/internal/interval",
	"queryaudit/internal/stats",
}

// PersistPaths is the one package allowed to touch files directly.
var PersistPaths = []string{"queryaudit/internal/persist"}

// CtxLeakPrefixes are the long-running service packages whose background
// goroutines must be lifecycle-bounded: a demoted or draining node with
// ghost workers still mutating state is a forked history. ctxleak runs
// here.
var CtxLeakPrefixes = []string{
	"queryaudit/internal/replica",
	"queryaudit/internal/server",
	"queryaudit/internal/auditlog",
}

// DefaultAnalyzers returns the eight analyzers configured for this
// module.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Detrand(DecisionPathPrefixes),
		RNGShare(),
		Lockcheck(),
		AtomicWrite(PersistPaths),
		FloatEq(FloatEqPrefixes),
		LockOrder(),
		CtxLeak(CtxLeakPrefixes),
		ErrSink(PersistPaths),
	}
}
