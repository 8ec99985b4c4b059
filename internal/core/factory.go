package core

import (
	"fmt"
	"sync"

	"queryaudit/internal/audit"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/qindex"
	"queryaudit/internal/query"
)

// AuditorFactory constructs one fresh auditor instance. Factories are
// the unit of the per-session registry: every analyst session calls the
// same factories the deployment was configured with, so each session's
// auditor stack starts from the identical (empty) state and evolves only
// with that analyst's own answered history.
type AuditorFactory func() (audit.Auditor, error)

// EngineSpec is a reusable recipe for building identical engines over
// one shared dataset: the auditor factories with their aggregate-kind
// registrations, plus the instrumentation to install at construction
// time.
//
// Observers are installed by Build BEFORE the engine is returned — never
// via SetObserver on an engine that is already serving traffic — so
// session-created engines are born fully instrumented and there is no
// window in which a decision can slip past the collector (or race with
// its installation).
//
// A joint auditor guarding several kinds (the max∧min family) must be
// registered with ONE Register call listing all its kinds; registering
// the kinds separately would build two independent instances and lose
// the cross-aggregate inference the joint auditor exists to see.
type EngineSpec struct {
	ds      *dataset.Dataset
	entries []specEntry
	obs     Observer
	mcObs   mcpar.Observer
	workers int
	sched   *mcpar.Scheduler
	// resOnce/res: the deployment-shared indexed resolver over ds, built
	// lazily so specs that never resolve SQL (replay, pure queryset
	// traffic) skip the index build.
	resOnce sync.Once
	res     *qindex.Resolver
}

type specEntry struct {
	build AuditorFactory
	kinds []query.Kind
}

// NewEngineSpec starts an empty spec over ds.
func NewEngineSpec(ds *dataset.Dataset) *EngineSpec {
	return &EngineSpec{ds: ds}
}

// Dataset returns the shared dataset every built engine serves.
func (sp *EngineSpec) Dataset() *dataset.Dataset { return sp.ds }

// Resolver returns the spec's shared indexed resolver over the dataset,
// building it on first use. Every consumer of the spec (the HTTP
// server, replay, tools) resolving through this one instance is what
// makes repeated statements across sessions land on the same interned,
// pointer-equal query sets — so primary, replica and replayed engines
// all see identical sets for identical SQL.
func (sp *EngineSpec) Resolver() *qindex.Resolver {
	sp.resOnce.Do(func() { sp.res = qindex.NewResolver(sp.ds) })
	return sp.res
}

// Register adds a factory for the given aggregate kinds. One factory
// call produces one auditor instance registered for all listed kinds.
func (sp *EngineSpec) Register(f AuditorFactory, kinds ...query.Kind) {
	sp.entries = append(sp.entries, specEntry{build: f, kinds: kinds})
}

// SetObserver sets the protocol observer installed on every built
// engine. Collectors backed by atomic registries (metrics.
// EngineCollector) are safe to share across all sessions' engines.
func (sp *EngineSpec) SetObserver(o Observer) { sp.obs = o }

// SetMCObserver sets the Monte Carlo observer installed on every built
// engine's MC-tunable auditors.
func (sp *EngineSpec) SetMCObserver(o mcpar.Observer) { sp.mcObs = o }

// SetMCWorkers sets the Monte Carlo pool size applied to every built
// engine (0 leaves auditors at their own default).
func (sp *EngineSpec) SetMCWorkers(n int) { sp.workers = n }

// SetMCScheduler sets the shared decision scheduler installed on every
// built engine's schedulable auditors. One scheduler per deployment:
// sessions built from the same spec then multiplex their decisions over
// one machine-sized pool instead of fanning out per decision.
func (sp *EngineSpec) SetMCScheduler(s *mcpar.Scheduler) { sp.sched = s }

// Build constructs a fresh engine: new auditor instances from every
// factory, observers and MC knobs installed before the engine is
// published to any other goroutine.
func (sp *EngineSpec) Build() (*Engine, error) {
	e := NewEngine(sp.ds)
	for _, en := range sp.entries {
		a, err := en.build()
		if err != nil {
			return nil, fmt.Errorf("core: building auditor: %w", err)
		}
		e.Use(a, en.kinds...)
	}
	if sp.obs != nil {
		e.SetObserver(sp.obs)
	}
	if sp.mcObs != nil {
		e.SetMCObserver(sp.mcObs)
	}
	if sp.workers != 0 {
		e.SetMCWorkers(sp.workers)
	}
	if sp.sched != nil {
		e.SetMCScheduler(sp.sched)
	}
	return e, nil
}
