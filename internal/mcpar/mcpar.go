// Package mcpar is the shared parallel Monte Carlo decision engine behind
// the probabilistic simulatable auditors (Section 3). Every decision of
// maxprob, maxminprob and sumprob reduces to the same shape: run up to
// `budget` independent sample evaluations, count how many vote "unsafe",
// and deny iff the unsafe fraction exceeds the δ/(2T) threshold. This
// package schedules that budget — across the caller and a process-wide
// assist pool shared by ALL concurrent decisions (see Scheduler) — while
// keeping the decision bit-identical at ANY worker count, including 1.
// Shell holds the rest of that shape, the part each auditor would
// otherwise repeat: the game's parameters, δ/(2T), the per-decision
// seed, and the collector and scheduler a vote reports to.
//
// # Determinism
//
// Sample i draws all of its randomness from a counter-based stream keyed
// by (seed, i) — randx.Stream — so its verdict is a pure function of the
// sample index, never of scheduling. The decision is a statement about
// the count of unsafe verdicts over the whole budget, so it is a
// deterministic value of the seed: identical at every worker count and
// under any interleaving with other analysts' decisions.
//
// # Early exit
//
// Votes only accumulate, so the count over any committed subset of
// indices yields sound certificates about the full-budget outcome (see
// run):
//
//   - votes > barrier                        ⇒ U > barrier (deny), stop sampling;
//   - votes + (budget − evaluated) ≤ barrier ⇒ U ≤ barrier (answer), stop sampling.
//
// Either certificate proves the decision the full budget would have made,
// so early exit never changes a decision. Which samples committed before
// the stop may vary with scheduling, so Outcome.CertPoint and
// Outcome.Votes may too; at Workers 1 they are the sequential loop's.
// The number of samples actually evaluated MAY exceed the certificate
// point — workers can have samples in flight when it fires — but by at
// most Workers−1: evaluated ≤ CertPoint + Workers − 1.
//
// # Worker isolation
//
// Samples run on "lanes": paired (source, rand.Rand, scratch) pooled per
// run, at most one per worker, never shared between two in-flight
// samples. The source is reseeded to (seed, i) before sample i, so lanes
// affect only allocation reuse, never randomness. CI runs the auditor
// tests under -race to enforce the isolation.
package mcpar

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"queryaudit/internal/metrics"
	"queryaudit/internal/randx"
)

// Config selects the scheduling and the random seed of one Vote run.
type Config struct {
	// Workers caps this decision's parallelism; 0 means
	// runtime.GOMAXPROCS(0), and 1 forces the fully sequential inline
	// path (same decisions, no goroutines, no scheduler).
	Workers int
	// Seed keys the per-sample random streams. Two runs with the same
	// seed, budget and sample function reach the same decision at any
	// worker count.
	Seed int64
	// Observer, when non-nil, receives one report per Vote run.
	Observer *metrics.MCCollector
	// Sched is the assist pool to draw spare capacity from; nil selects
	// the process-wide Default(). The pool is shared by all concurrent
	// decisions — Workers only caps how much of it one decision may use.
	Sched *Scheduler
}

// Outcome reports one Vote run.
type Outcome struct {
	// Budget is the sample budget requested.
	Budget int
	// Evaluated is how many samples actually ran. It may vary with
	// scheduling but is bounded: CertPoint ≤ Evaluated ≤ CertPoint+Workers−1.
	Evaluated int
	// Votes counts "unsafe" verdicts among the CertPoint samples the
	// decision is taken on: barrier+1 on a deny. It may vary with
	// scheduling on an answer above Workers 1.
	Votes int
	// Workers is the resolved per-decision cap.
	Workers int
	// Exceeded reports the decision: deny (the full-budget unsafe count
	// provably exceeds the barrier) versus answer. Identical at every
	// worker count.
	Exceeded bool
	// CertPoint is the number of committed samples at which a certificate
	// fired (== Budget when none fired early). At Workers 1 it is the
	// sequential loop's stop point.
	CertPoint int
	// busy is the summed per-worker time inside the sample loop;
	// Config.Observer receives it via ObserveMC.
	busy time.Duration
}

// resolveWorkers maps the Workers knob onto a concrete pool size.
func (c Config) resolveWorkers(budget int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > budget {
		w = budget
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DenyBarrier returns the largest vote count k such that k out of budget
// does NOT exceed threshold under the auditors' historical float
// comparison float64(k)/float64(budget) > threshold. A decision denies
// iff votes > DenyBarrier(budget, threshold).
func DenyBarrier(budget int, threshold float64) int {
	if budget <= 0 {
		return 0
	}
	k := int(threshold * float64(budget))
	if k > budget {
		k = budget
	}
	for k < budget && float64(k+1)/float64(budget) <= threshold {
		k++
	}
	for k > 0 && float64(k)/float64(budget) > threshold {
		k--
	}
	return k
}

// chunkFor sizes the assist work quantum: small enough that a token
// cycles back through the queue often (fairness across concurrent
// decisions), large enough to amortize the queue round-trip.
func chunkFor(budget, workers int) int {
	c := budget / (4 * workers)
	if c < 1 {
		c = 1
	}
	if c > 64 {
		c = 64
	}
	return c
}

// lane pairs one rand.Rand (over a reseedable splitmix source) with one
// scratch value. A lane serves one in-flight sample at a time; the pool
// hands it to whichever claimant runs the next sample. Reseeding before
// every sample makes lane identity irrelevant to randomness — it only
// carries allocation reuse.
type lane[S any] struct {
	src *randx.SplitMix
	// rng is confined to the lane: exactly one in-flight sample holds a
	// lane at any time (taken from and returned to a buffered channel).
	rng     *rand.Rand //auditlint:allow rngshare lane is held by exactly one in-flight sample at a time via the lanes channel
	scratch S
}

// Vote runs sample(i, rng, src, scratch) for i ∈ [0, budget), counting
// true returns as unsafe votes, and reports whether the full-budget vote
// count exceeds barrier. Each sample's rng is the (cfg.Seed, i) stream,
// read through src, the lane's source: a hot loop may draw from src
// directly, which rng's next draws then follow; scratch
// is per-lane state from newScratch (at most Workers lanes; may build
// reusable buffers). sample must not touch anything mutable outside its
// scratch — shared inputs (the synopsis, the query) are read-only.
//
// The calling goroutine always participates: with Workers == 1 the whole
// run is inline and allocation-light, with Workers > 1 up to Workers-1
// work tokens are offered to the scheduler and the caller races the
// assists for the remaining samples.
func Vote[S any](cfg Config, budget, barrier int, newScratch func() S, sample func(i int, rng *rand.Rand, src *randx.SplitMix, scratch S) bool) Outcome {
	workers := cfg.resolveWorkers(budget)
	start := time.Now() //auditlint:allow detrand latency metric stamp, never a decision input
	if budget <= 0 {
		wall := time.Since(start) //auditlint:allow detrand latency metric stamp, never a decision input
		cfg.Observer.ObserveMC(0, 0, 0, wall, wall)
		return Outcome{Workers: workers}
	}

	r := newRun(budget, barrier, chunkFor(budget, workers))
	lanes := make(chan *lane[S], workers)
	var created int32
	var busy atomic.Int64
	r.eval = func(i int) {
		var l *lane[S]
		select {
		case l = <-lanes:
		default:
			if int(atomic.AddInt32(&created, 1)) <= workers {
				src := randx.NewSplitMix(cfg.Seed, uint64(i))
				l = &lane[S]{src: src, rng: rand.New(src), scratch: newScratch()}
			} else {
				l = <-lanes
			}
		}
		l.src.Reseed(cfg.Seed, uint64(i))
		begin := time.Now() //auditlint:allow detrand latency metric stamp, never a decision input
		unsafe := sample(i, l.rng, l.src, l.scratch)
		busy.Add(int64(time.Since(begin))) //auditlint:allow detrand latency metric stamp, never a decision input
		lanes <- l
		r.commit(unsafe)
	}

	sched := cfg.Sched
	if sched == nil {
		sched = Default()
	}
	tokens := 0
	if workers > 1 {
		tokens = sched.offer(r, workers-1)
	}
	callerRan := r.work(0)
	<-r.done

	r.mu.Lock()
	out := Outcome{
		Budget:    budget,
		Evaluated: r.evaluated,
		Votes:     r.unsafe,
		Workers:   workers,
		Exceeded:  r.deny,
		CertPoint: r.stop,
		busy:      time.Duration(busy.Load()),
	}
	r.mu.Unlock()

	if tokens > 0 {
		sched.observe(tokens, int(r.assisted.Load()), callerRan)
	}
	wall := time.Since(start) //auditlint:allow detrand latency metric stamp, never a decision input
	b := out.busy
	if b <= 0 {
		b = wall
	}
	cfg.Observer.ObserveMC(budget, out.Evaluated, out.Votes, wall, b)
	return out
}
