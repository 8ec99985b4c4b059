package mcpar

// One Vote's shared state while its samples are in flight on the caller
// and (possibly) the scheduler's assist workers.
//
// # Order-free certificates
//
// A commit adds its verdict to a plain count and checks the two exact
// certificates against it:
//
//	unsafe > barrier                        ⇒ deny,
//	unsafe + (budget − evaluated) ≤ barrier ⇒ answer.
//
// Each verdict is a pure function of (seed, index), so either one proves
// the decision the full budget would make, whatever subset of indices has
// committed and in whatever order. Worker count and scheduling cannot
// change the decision; they can change the stop point and the vote count
// at it, which equal the sequential loop's at Workers 1.
//
// # Bounded overshoot
//
// At most Workers samples are in flight at once: the caller plus
// Workers−1 scheduler tokens. Once a certificate fires nothing more is
// claimed, so at most Workers−1 samples beyond the stop point commit:
//
//	evaluated ≤ stop + Workers − 1.

import (
	"sync"
	"sync/atomic"
)

type run struct {
	budget  int
	barrier int
	chunk   int // samples an assist evaluates per token

	// eval evaluates sample i: acquire a lane, reseed its stream to
	// (seed, i), run the sample, commit the verdict. Set by Vote; closes
	// over the generic lane pool.
	eval func(i int)

	mu sync.Mutex
	// next is the claim dispenser, inflight the claimed samples not yet
	// committed, evaluated the committed ones and unsafe the unsafe
	// verdicts committed before the stop. stop is evaluated when a
	// certificate fired (-1 until then) and deny its decision.
	next      int  // auditlint:guardedby(mu)
	inflight  int  // auditlint:guardedby(mu)
	evaluated int  // auditlint:guardedby(mu)
	unsafe    int  // auditlint:guardedby(mu)
	stop      int  // auditlint:guardedby(mu)
	deny      bool // auditlint:guardedby(mu)

	done     chan struct{}
	assisted atomic.Int64 // samples evaluated by pool workers
}

func newRun(budget, barrier, chunk int) *run {
	return &run{
		budget:  budget,
		barrier: barrier,
		chunk:   chunk,
		stop:    -1,
		done:    make(chan struct{}),
	}
}

// work claims and evaluates samples until the run stops or, when limit is
// positive, until limit samples were evaluated by this call. It returns
// the number evaluated. Shared by the deciding goroutine (limit 0) and
// the scheduler's assists (limit = chunk). Assisted samples are tallied
// before their commit so the count is complete when the run's done
// channel closes.
func (r *run) work(limit int) int {
	n := 0
	for limit <= 0 || n < limit {
		i, ok := r.claim()
		if !ok {
			break
		}
		if limit > 0 {
			r.assisted.Add(1)
		}
		r.eval(i)
		n++
	}
	return n
}

// claim returns the next sample index. ok is false once the run has
// stopped or the budget is exhausted.
func (r *run) claim() (i int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop >= 0 || r.next >= r.budget {
		return 0, false
	}
	i = r.next
	r.next++
	r.inflight++
	return i, true
}

// claimable reports whether unclaimed samples remain — whether a
// scheduler token for this run is still worth re-enqueueing.
func (r *run) claimable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stop < 0 && r.next < r.budget
}

// commit counts one verdict and checks the certificates. The commit that
// both sees a fired certificate and drains the last in-flight sample
// completes the run. The last sample of the budget always fires one.
func (r *run) commit(unsafe bool) {
	r.mu.Lock()
	r.evaluated++
	r.inflight--
	if r.stop < 0 {
		if unsafe {
			r.unsafe++
		}
		if r.unsafe > r.barrier {
			r.stop, r.deny = r.evaluated, true
		} else if r.unsafe+(r.budget-r.evaluated) <= r.barrier {
			r.stop = r.evaluated
		}
	}
	finished := r.stop >= 0 && r.inflight == 0
	r.mu.Unlock()
	if finished {
		close(r.done)
	}
}
