package core

import (
	"fmt"
	"sync"

	"queryaudit/internal/audit"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
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
// registrations, plus the collectors and Monte Carlo settings Build
// gives every engine.
//
// Build is the only way to configure an engine's collectors and Monte
// Carlo settings, and it does so before the engine is returned, so
// session-created engines are born fully instrumented and there is no
// window in which a decision can slip past a collector (or race with
// its installation).
//
// A joint auditor guarding several kinds (the max∧min family) must be
// registered with ONE Register call listing all its kinds; registering
// the kinds separately would build two independent instances and lose
// the cross-aggregate inference the joint auditor exists to see.
type EngineSpec struct {
	ds      *dataset.Dataset
	entries []specEntry
	obs     *metrics.EngineCollector
	mcObs   *metrics.MCCollector
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

// SetObserver sets the protocol collector of every built engine. One
// collector is safe to share across all sessions' engines.
func (sp *EngineSpec) SetObserver(o *metrics.EngineCollector) { sp.obs = o }

// SetMCObserver sets the Monte Carlo collector of every built engine's
// probabilistic auditors.
func (sp *EngineSpec) SetMCObserver(o *metrics.MCCollector) { sp.mcObs = o }

// SetMCWorkers sets the per-decision Monte Carlo pool cap of every built
// engine's probabilistic auditors (0 keeps each auditor's
// Params.Workers).
func (sp *EngineSpec) SetMCWorkers(n int) { sp.workers = n }

// SetMCScheduler sets the shared decision scheduler of every built
// engine's probabilistic auditors. One scheduler per deployment:
// sessions built from the same spec then multiplex their decisions over
// one machine-sized pool instead of fanning out per decision.
func (sp *EngineSpec) SetMCScheduler(s *mcpar.Scheduler) { sp.sched = s }

// mcAuditor is an auditor whose decisions run on the shared Monte Carlo
// engine (internal/mcpar): maxprob, maxminprob and sumprob.
type mcAuditor interface {
	ConfigureMC(workers int, mc *metrics.MCCollector, sched *mcpar.Scheduler)
}

// Build constructs a fresh engine: new auditor instances from every
// factory, with the spec's collectors and Monte Carlo settings in place
// before the engine is published to any other goroutine. Each factory
// call is one auditor instance, so each is configured once even when it
// guards several kinds.
func (sp *EngineSpec) Build() (*Engine, error) {
	e := NewEngine(sp.ds)
	e.obs = sp.obs
	for _, en := range sp.entries {
		a, err := en.build()
		if err != nil {
			return nil, fmt.Errorf("core: building auditor: %w", err)
		}
		if m, ok := a.(mcAuditor); ok {
			m.ConfigureMC(sp.workers, sp.mcObs, sp.sched)
		}
		e.Use(a, en.kinds...)
	}
	return e, nil
}
