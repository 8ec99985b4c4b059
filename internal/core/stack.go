package core

import (
	"flag"
	"fmt"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// StackConfig describes one auditor stack plus the dataset it guards —
// the one construction auditserver, auditdb and the offline replay
// (internal/auditlog) all perform, so a retrospective replay builds a
// bit-identical stack from the same parameters. Every seed-bearing knob
// lives here: two deployments (or one deployment and one retrospective
// replay) with equal StackConfigs produce engines whose decisions agree
// bit-for-bit.
type StackConfig struct {
	// Family selects the auditor family: "full" (exact disclosure
	// auditors) or "prob" (the Section 3 probabilistic auditors).
	Family string `json:"family"`
	// N and Seed parameterize the synthetic company table.
	N    int   `json:"n"`
	Seed int64 `json:"seed"`

	// Prob-family parameters (ignored for "full"). MaxMin auditors use
	// ProbSeed, the sum auditor ProbSeed+1, so a live and an offline
	// stack's Monte Carlo streams line up.
	Lambda    float64 `json:"lambda,omitempty"`
	Gamma     int     `json:"gamma,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	T         int     `json:"t,omitempty"`
	MCWorkers int     `json:"mc_workers,omitempty"`
	ProbSeed  int64   `json:"prob_seed,omitempty"`
}

// DefaultStackConfig is the stack the commands build when no stack flag
// is given.
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

// RegisterFlags declares the stack flags on fs, bound to c's fields
// with c's current values as defaults.
func (c *StackConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Family, "auditors", c.Family, "auditor family: full (exact disclosure auditors) or prob (Section 3 probabilistic auditors)")
	fs.IntVar(&c.N, "n", c.N, "number of records in the synthetic table")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "random seed for the synthetic table")
	fs.IntVar(&c.MCWorkers, "mc-workers", c.MCWorkers, "per-decision cap on the shared Monte Carlo scheduler for prob auditors (0 = GOMAXPROCS, 1 = sequential); the assist pool itself is sized to this cap and multiplexed across all decisions")
	fs.Float64Var(&c.Lambda, "prob-lambda", c.Lambda, "prob auditors: tolerated posterior/prior drift λ in (0,1)")
	fs.IntVar(&c.Gamma, "prob-gamma", c.Gamma, "prob auditors: partition intervals γ")
	fs.Float64Var(&c.Delta, "prob-delta", c.Delta, "prob auditors: attacker winning-probability bound δ")
	fs.IntVar(&c.T, "prob-t", c.T, "prob auditors: game rounds T")
	fs.Int64Var(&c.ProbSeed, "prob-seed", c.ProbSeed, "prob auditors: Monte Carlo seed (decisions are reproducible per seed)")
}

// Validate rejects configs no command would accept. Run it before
// NewDataset.
func (c StackConfig) Validate() error {
	if c.Family != "full" && c.Family != "prob" {
		return fmt.Errorf("unknown -auditors %q (want full or prob)", c.Family)
	}
	if c.N <= 0 {
		return fmt.Errorf("-n %d: the table needs at least one record", c.N)
	}
	return nil
}

// DatasetConfig returns the company-table configuration the stack
// guards. The prob family normalizes sensitive values to [0,1] — the
// range its interval partition and polytope box protect — so recorded
// answers stay consistent with its synopsis.
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
// with MCWorkers as the prob auditors' per-decision pool cap; c is
// expected to have passed Validate. The spec's metrics collectors
// (SetObserver, SetMCObserver) and its shared Monte Carlo scheduler
// (SetMCScheduler) stay the caller's responsibility — they affect
// reporting and parallelism, never the decisions themselves.
func (c StackConfig) RegisterAuditors(spec *EngineSpec) error {
	n := c.N
	switch c.Family {
	case "full":
		spec.Register(func() (audit.Auditor, error) { return sumfull.New(n), nil }, query.Sum)
		spec.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
	case "prob":
		g := mcpar.Game{
			Lambda: c.Lambda, Gamma: c.Gamma, Delta: c.Delta, T: c.T,
			Workers: c.MCWorkers, Seed: c.ProbSeed,
		}
		mmP := maxminprob.Params{Game: g}
		g.Seed = c.ProbSeed + 1
		sP := sumprob.Params{Game: g}
		spec.Register(func() (audit.Auditor, error) { return maxminprob.New(n, mmP) }, query.Max, query.Min)
		spec.Register(func() (audit.Auditor, error) { return sumprob.New(n, sP) }, query.Sum)
	default:
		return c.Validate() // names the unknown family
	}
	return nil
}
