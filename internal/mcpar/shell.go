package mcpar

import (
	"fmt"
	"math"

	"queryaudit/internal/metrics"
	"queryaudit/internal/randx"
)

// Game holds the parameters of the (λ, δ, γ, T) privacy game of Section 3
// and the Monte Carlo knobs every probabilistic auditor shares. Each
// auditor's Params embeds it.
type Game struct {
	// Lambda bounds the tolerated posterior/prior ratio drift (0<λ<1).
	Lambda float64
	// Gamma is the number of partition intervals of [0,1].
	Gamma int
	// Delta bounds the attacker's winning probability over T rounds.
	Delta float64
	// T is the number of game rounds.
	T int
	// Workers caps the auditor's share of the decision scheduler per
	// decision; 0 = GOMAXPROCS, 1 = sequential. Decisions are identical
	// at any worker count for a fixed Seed.
	Workers int
	// Seed drives the auditor's randomness.
	Seed int64
}

// Validate checks that g is a game Section 3 defines.
func (g Game) Validate() error {
	switch {
	case g.Lambda <= 0 || g.Lambda >= 1:
		return fmt.Errorf("lambda must be in (0,1), got %g", g.Lambda)
	case g.Gamma < 1:
		return fmt.Errorf("gamma must be >= 1, got %d", g.Gamma)
	case g.Delta <= 0 || g.Delta >= 1:
		return fmt.Errorf("delta must be in (0,1), got %g", g.Delta)
	case g.T < 1:
		return fmt.Errorf("T must be >= 1, got %d", g.T)
	}
	return nil
}

// ChernoffSamples is Theorem 1's sample count, (T/δ)·ln(T/δ) rounded up
// and at least 8: enough samples to tell a breach probability above δ/T
// from one below δ/(2T).
func (g Game) ChernoffSamples() int {
	r := float64(g.T) / g.Delta
	n := int(math.Ceil(r * math.Log(r)))
	if n < 8 {
		n = 8
	}
	return n
}

// Shell is the part of Algorithm 2 that every probabilistic auditor
// runs the same way: each decision takes a fresh seed, votes over its
// sample budget on the shared scheduler, and denies iff the unsafe
// fraction exceeds δ/(2T). An auditor embeds it and supplies only the
// budget and the sample function.
type Shell struct {
	Game
	// decisions counts the seeds taken; decision k votes with the seed
	// DeriveSeed(Seed, k), so samples are fresh per decision yet
	// bit-reproducible across runs and worker counts.
	decisions uint64
	// mc observes per-decision Monte Carlo accounting (may be nil).
	mc    *metrics.MCCollector
	sched *Scheduler
}

// NewShell returns the shell of game g, or g's Validate error.
func NewShell(g Game) (Shell, error) {
	if err := g.Validate(); err != nil {
		return Shell{}, err
	}
	return Shell{Game: g}, nil
}

// ConfigureMC installs the per-decision Monte Carlo accounting collector
// (nil disables) and the shared assist pool (nil selects Default()), and
// sets Workers, the per-decision pool cap, when workers is non-zero.
func (s *Shell) ConfigureMC(workers int, mc *metrics.MCCollector, sched *Scheduler) {
	if workers != 0 {
		s.Workers = workers
	}
	s.mc, s.sched = mc, sched
}

// NextSeed returns the seed of the next decision and counts it. Where a
// decision takes its seed is part of the auditor's semantics: a decision
// that returns before taking one leaves every later seed as it was.
func (s *Shell) NextSeed() int64 {
	seed := randx.DeriveSeed(s.Seed, s.decisions)
	s.decisions++
	return seed
}

// Barrier is the deny barrier of a vote over budget samples: the vote
// denies iff more than Barrier(budget) samples are unsafe, a share above
// δ/(2T).
func (s *Shell) Barrier(budget int) int {
	return DenyBarrier(budget, s.Delta/(2*float64(s.T)))
}

// Config is the configuration of a vote keyed by seed.
func (s *Shell) Config(seed int64) Config {
	return Config{
		Workers:  s.Workers,
		Seed:     seed,
		Observer: s.mc,
		Sched:    s.sched,
	}
}
