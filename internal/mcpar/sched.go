package mcpar

// The decision scheduler: one bounded pool of assist workers multiplexing
// every concurrent Vote run in the process, replacing the per-decision
// goroutine fan-out that PR 2 shipped. The old design paid a full pool
// spin-up per decision and could not overlap two analysts' decisions —
// with S sessions each capped at W workers it wanted S·W goroutines while
// the machine has NumCPU cores. Here the pool is sized once for the
// machine and decisions *share* it: a Vote enqueues up to cap-1 work
// tokens and then participates in its own run from the calling goroutine,
// so a decision always makes progress even when the pool is saturated by
// other analysts, and aggregate throughput is bounded by the pool size
// rather than by per-decision latency.
//
// A token is a claim on one bounded chunk of a run's samples. Workers
// dequeue a token, evaluate up to chunk samples of that run, and — if the
// run still has claimable samples — re-enqueue the token behind every
// other waiting run. That round-robin keeps one slow decision (sumprob's
// polytope chains) from starving the cheap ones (maxprob) behind it.

import (
	"runtime"
	"sync"

	"queryaudit/internal/metrics"
)

// Scheduler is a shared assist pool. The zero value is not usable; build
// one with NewScheduler or use the process-wide Default.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*run // FIFO of work tokens
	closed bool
	size   int
	wg     sync.WaitGroup
	obs    *metrics.SchedCollector
}

// NewScheduler starts a pool of size assist workers (0 or negative means
// runtime.GOMAXPROCS(0)). Size bounds how many samples the pool can
// evaluate concurrently ACROSS all decisions; each decision's own cap is
// Config.Workers. A size-0 pool is impossible — callers wanting fully
// sequential decisions set Config.Workers to 1, which never enqueues
// tokens at all.
func NewScheduler(size int) *Scheduler {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{size: size}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(size)
	for i := 0; i < size; i++ {
		go s.worker()
	}
	return s
}

// SetObserver installs the per-run accounting collector (nil disables).
// Install before the scheduler serves decisions.
func (s *Scheduler) SetObserver(o *metrics.SchedCollector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = o
}

// Size returns the assist-pool size.
func (s *Scheduler) Size() int { return s.size }

// Close drains the pool. Runs already enqueued finish through their
// callers (a Vote never depends on the pool for progress); new offers are
// refused. Close is for tests and orderly shutdown — the package Default
// is never closed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// offer enqueues n work tokens for r and reports how many were accepted
// (0 when the pool is closed). Tokens are hints, not obligations: a run
// completes through its caller even if every token is dropped.
func (s *Scheduler) offer(r *run, n int) int {
	if s == nil || n <= 0 {
		return 0
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	for i := 0; i < n; i++ {
		s.queue = append(s.queue, r)
	}
	for i := 0; i < n; i++ {
		s.cond.Signal()
	}
	s.mu.Unlock()
	return n
}

// worker is the assist loop: dequeue a token, evaluate one chunk of that
// run, put the token back if the run still has claimable samples.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		r := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		s.mu.Unlock()
		r.work(r.chunk)
		if r.claimable() {
			s.offer(r, 1)
		}
	}
}

// observe reports a finished run to the collector, if any.
func (s *Scheduler) observe(tokens, assisted, caller int) {
	s.mu.Lock()
	obs := s.obs
	s.mu.Unlock()
	obs.ObserveSchedRun(tokens, assisted, caller)
}

var (
	defaultOnce  sync.Once
	defaultSched *Scheduler
)

// Default returns the lazily-started process-wide scheduler, sized
// runtime.GOMAXPROCS(0). Votes with a nil Config.Sched share it, so every
// auditor in the process draws from one machine-sized pool by default.
func Default() *Scheduler {
	defaultOnce.Do(func() { defaultSched = NewScheduler(0) })
	return defaultSched
}
