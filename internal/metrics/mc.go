package metrics

import "time"

// MCSampleBuckets bound the per-decision sample-count histogram: the
// Chernoff budgets run from a handful of samples (tiny T/δ) to the
// O((T/δ)·log(T/δ)) thousands of the paper-scale runs.
var MCSampleBuckets = []float64{
	4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
}

// MCSpeedupBuckets bound the per-decision parallel-speedup histogram
// (busy/wall — 1.0 means sequential, GOMAXPROCS is the ceiling).
var MCSpeedupBuckets = []float64{
	0.5, 0.75, 1, 1.25, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32,
}

// MCCollector counts mcpar.Vote runs in a Registry. Its method is
// atomic-only, safe to run inside the engine lock (auditor decisions run
// under it), and a no-op on a nil receiver.
//
// Exported names:
//
//	mc_decisions_total            Monte Carlo decisions taken
//	mc_samples_total              samples actually evaluated
//	mc_samples_saved_total        budgeted samples skipped by early exit
//	mc_unsafe_votes_total         unsafe verdicts across all decisions
//	mc_samples_per_decision       histogram of evaluated samples/decision
//	mc_parallel_speedup           histogram of busy/wall per decision
type MCCollector struct {
	decisions *Counter
	samples   *Counter
	saved     *Counter
	votes     *Counter
	perDec    *Histogram
	speedup   *Histogram
}

// NewMCCollector wires a collector into reg.
func NewMCCollector(reg *Registry) *MCCollector {
	return &MCCollector{
		decisions: reg.Counter("mc_decisions_total"),
		samples:   reg.Counter("mc_samples_total"),
		saved:     reg.Counter("mc_samples_saved_total"),
		votes:     reg.Counter("mc_unsafe_votes_total"),
		perDec:    reg.Histogram("mc_samples_per_decision", MCSampleBuckets),
		speedup:   reg.Histogram("mc_parallel_speedup", MCSpeedupBuckets),
	}
}

// ObserveMC reports one decision: the sample budget against the samples
// actually evaluated (early-exit savings), the unsafe votes, and wall
// against summed worker time (parallel speedup).
func (c *MCCollector) ObserveMC(budget, evaluated, votes int, wall, busy time.Duration) {
	if c == nil {
		return
	}
	c.decisions.Inc()
	c.samples.Add(int64(evaluated))
	if budget > evaluated {
		c.saved.Add(int64(budget - evaluated))
	}
	c.votes.Add(int64(votes))
	c.perDec.Observe(float64(evaluated))
	if wall > 0 {
		c.speedup.Observe(busy.Seconds() / wall.Seconds())
	}
}

// SchedCollector counts how an mcpar.Scheduler splits sample work
// between the assist pool and the deciding goroutines themselves.
// Atomic-only and nil-safe, like MCCollector.
//
// Exported names:
//
//	mcsched_runs_total            scheduler-assisted decisions
//	mcsched_tokens_total          work tokens enqueued
//	mcsched_assist_samples_total  samples evaluated by pool workers
//	mcsched_caller_samples_total  samples evaluated by deciding callers
type SchedCollector struct {
	runs    *Counter
	tokens  *Counter
	assist  *Counter
	callers *Counter
}

// NewSchedCollector wires a collector into reg.
func NewSchedCollector(reg *Registry) *SchedCollector {
	return &SchedCollector{
		runs:    reg.Counter("mcsched_runs_total"),
		tokens:  reg.Counter("mcsched_tokens_total"),
		assist:  reg.Counter("mcsched_assist_samples_total"),
		callers: reg.Counter("mcsched_caller_samples_total"),
	}
}

// ObserveSchedRun reports one scheduler-assisted run: the work tokens it
// enqueued and the samples evaluated by the pool and by the caller.
func (c *SchedCollector) ObserveSchedRun(tokens, assisted, caller int) {
	if c == nil {
		return
	}
	c.runs.Inc()
	c.tokens.Add(int64(tokens))
	c.assist.Add(int64(assisted))
	c.callers.Add(int64(caller))
}
