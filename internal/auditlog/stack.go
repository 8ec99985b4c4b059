package auditlog

import (
	"fmt"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// StackConfig describes one auditor stack plus the dataset it guards —
// the exact construction a live auditserver performs, factored out so
// the offline replay builds a bit-identical stack from the same
// parameters. Every seed-bearing knob lives here: two deployments (or
// one deployment and one retrospective replay) with equal StackConfigs
// produce engines whose decisions agree bit-for-bit.
type StackConfig struct {
	// Family selects the auditor family: "full" (exact disclosure
	// auditors) or "prob" (the Section 3 probabilistic auditors).
	Family string `json:"family"`
	// N and Seed parameterize the synthetic company table.
	N    int   `json:"n"`
	Seed int64 `json:"seed"`

	// Prob-family parameters (ignored for "full"). MaxMin auditors use
	// ProbSeed, the sum auditor ProbSeed+1 — the same split the live
	// server applies, so the two stacks' Monte Carlo streams line up.
	Lambda        float64 `json:"lambda,omitempty"`
	Gamma         int     `json:"gamma,omitempty"`
	Delta         float64 `json:"delta,omitempty"`
	T             int     `json:"t,omitempty"`
	MCWorkers     int     `json:"mc_workers,omitempty"`
	AdaptiveAlpha float64 `json:"adaptive_alpha,omitempty"`
	ProbSeed      int64   `json:"prob_seed,omitempty"`
}

// DefaultStackConfig mirrors auditserver's flag defaults.
func DefaultStackConfig() StackConfig {
	return StackConfig{
		Family:   "full",
		N:        300,
		Seed:     1,
		Lambda:   0.45,
		Gamma:    4,
		Delta:    0.2,
		T:        12,
		ProbSeed: 1,
	}
}

// Validate rejects configs no server would accept.
func (c StackConfig) Validate() error {
	if c.Family != "full" && c.Family != "prob" {
		return fmt.Errorf("auditlog: unknown auditor family %q (want full or prob)", c.Family)
	}
	if c.N <= 0 {
		return fmt.Errorf("auditlog: dataset size %d must be positive", c.N)
	}
	return nil
}

// DatasetConfig returns the company-table configuration the stack
// guards. The prob family normalizes sensitive values to [0,1] — the
// range its interval partition and polytope box protect — exactly as
// the live server does, so recorded answers stay consistent.
func (c StackConfig) DatasetConfig() dataset.CompanyConfig {
	cfg := dataset.DefaultCompanyConfig(c.N)
	if c.Family == "prob" {
		cfg.MinSalary, cfg.MaxSalary = 0, 1
	}
	return cfg
}

// NewDataset generates the deterministic synthetic table.
func (c StackConfig) NewDataset() *dataset.Dataset {
	return dataset.GenerateCompany(randx.New(c.Seed), c.DatasetConfig())
}

// RegisterAuditors installs the family's auditor factories on spec,
// with MCWorkers as the prob auditors' per-decision pool cap. The
// spec's metrics collectors (SetObserver, SetMCObserver) and its shared
// Monte Carlo scheduler (SetMCScheduler) stay the caller's
// responsibility — they affect reporting and parallelism, never the
// decisions themselves.
func (c StackConfig) RegisterAuditors(spec *core.EngineSpec) error {
	if err := c.Validate(); err != nil {
		return err
	}
	n := c.N
	switch c.Family {
	case "full":
		spec.Register(func() (audit.Auditor, error) { return sumfull.New(n), nil }, query.Sum)
		spec.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
	case "prob":
		mmP := maxminprob.Params{
			Lambda: c.Lambda, Gamma: c.Gamma, Delta: c.Delta, T: c.T,
			Workers: c.MCWorkers, Seed: c.ProbSeed, AdaptiveAlpha: c.AdaptiveAlpha,
		}
		sP := sumprob.Params{
			Lambda: c.Lambda, Gamma: c.Gamma, Delta: c.Delta, T: c.T,
			Workers: c.MCWorkers, Seed: c.ProbSeed + 1, AdaptiveAlpha: c.AdaptiveAlpha,
		}
		spec.Register(func() (audit.Auditor, error) { return maxminprob.New(n, mmP) }, query.Max, query.Min)
		spec.Register(func() (audit.Auditor, error) { return sumprob.New(n, sP) }, query.Sum)
	}
	return nil
}

// NewSpec builds a fresh dataset plus a spec with the family's auditors
// registered — the one-call path for offline consumers that need a
// whole stack per analyst.
func (c StackConfig) NewSpec() (*core.EngineSpec, error) {
	spec := core.NewEngineSpec(c.NewDataset())
	if err := c.RegisterAuditors(spec); err != nil {
		return nil, err
	}
	return spec, nil
}
