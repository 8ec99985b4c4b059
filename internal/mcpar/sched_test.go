package mcpar

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"queryaudit/internal/randx"
)

// The overshoot bound: nothing is claimed once a certificate fires, and
// at most Workers samples are ever in flight, so however samples land
// across the caller and the assist pool, at most Workers−1 samples beyond
// the certificate point ever run.
func TestVoteOvershootBoundedByWorkers(t *testing.T) {
	sched := NewScheduler(4)
	defer sched.Close()
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := int64(0); seed < 20; seed++ {
			out := Vote(Config{Workers: workers, Seed: seed, Sched: sched}, 50_000, 3,
				func() struct{} { return struct{}{} },
				func(_ int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return rng.Float64() < 0.9 })
			if !out.Exceeded {
				t.Fatalf("seed %d: 90%% unsafe run must deny", seed)
			}
			if out.Evaluated > out.CertPoint+out.Workers-1 {
				t.Fatalf("workers=%d seed=%d: evaluated %d > certificate point %d + workers %d - 1",
					workers, seed, out.Evaluated, out.CertPoint, out.Workers)
			}
			if out.Evaluated < out.CertPoint {
				t.Fatalf("workers=%d seed=%d: evaluated %d below certificate point %d",
					workers, seed, out.Evaluated, out.CertPoint)
			}
		}
	}
}

// sequentialStop runs the certificates of run in index order: the stop
// point, vote count and decision the Workers 1 path must report.
func sequentialStop(seed int64, budget, barrier int, sample func(i int, rng *rand.Rand) bool) (stop, votes int, deny bool) {
	for i := 0; i < budget; i++ {
		if sample(i, randx.Stream(seed, uint64(i))) {
			votes++
		}
		if votes > barrier {
			return i + 1, votes, true
		}
		if votes+(budget-i-1) <= barrier {
			return i + 1, votes, false
		}
	}
	return budget, votes, false
}

// The decision must equal the full-budget count's at every worker count,
// and a deny always stops at barrier+1 votes. Which samples committed
// before an answer may vary above Workers 1, so CertPoint and Votes are
// checked against the sequential loop at Workers 1 only.
func TestVoteCertPointInvariantAcrossWorkers(t *testing.T) {
	sched := NewScheduler(4)
	defer sched.Close()
	sample := func(_ int, rng *rand.Rand) bool { return rng.Float64() < 0.31 }
	for _, budget := range []int{16, 200, 3000} {
		for _, thr := range []float64{0.05, 0.3, 0.7} {
			barrier := DenyBarrier(budget, thr)
			for seed := int64(0); seed < 8; seed++ {
				want := fullCount(seed, budget, sample) > barrier
				stop, votes, _ := sequentialStop(seed, budget, barrier, sample)
				for _, workers := range []int{1, 2, 8} {
					out := Vote(Config{Workers: workers, Seed: seed, Sched: sched}, budget, barrier,
						func() struct{} { return struct{}{} },
						func(i int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return sample(i, rng) })
					if out.Exceeded != want {
						t.Fatalf("budget=%d thr=%g seed=%d workers=%d: Exceeded=%v, full count says %v",
							budget, thr, seed, workers, out.Exceeded, want)
					}
					if out.Exceeded && out.Votes != barrier+1 {
						t.Fatalf("budget=%d thr=%g seed=%d workers=%d: deny with %d votes, want barrier+1 = %d",
							budget, thr, seed, workers, out.Votes, barrier+1)
					}
					if workers == 1 && (out.CertPoint != stop || out.Votes != votes) {
						t.Fatalf("budget=%d thr=%g seed=%d: (cert=%d votes=%d), sequential (cert=%d votes=%d)",
							budget, thr, seed, out.CertPoint, out.Votes, stop, votes)
					}
				}
			}
		}
	}
}

// Many concurrent Vote runs multiplexed over one small scheduler — the
// serving shape of many analysts' sessions deciding at once — must each
// reach the same decision as the same run executed alone and
// sequentially, and a deny the same vote count. Run under -race in CI.
func TestSchedulerConcurrentRunsDeterministic(t *testing.T) {
	sched := NewScheduler(3)
	defer sched.Close()
	const runs = 24
	const budget = 400
	barrier := DenyBarrier(budget, 0.3)
	sample := func(_ int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return rng.Float64() < 0.29 }

	want := make([]Outcome, runs)
	for i := range want {
		want[i] = Vote(Config{Workers: 1, Seed: int64(i)}, budget, barrier,
			func() struct{} { return struct{}{} }, sample)
	}

	var wg sync.WaitGroup
	got := make([]Outcome, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Vote(Config{Workers: 4, Seed: int64(i), Sched: sched}, budget, barrier,
				func() struct{} { return struct{}{} }, sample)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !sameDecision(got[i], want[i]) {
			t.Fatalf("run %d diverged under concurrent scheduling: (deny=%v votes=%d), want (deny=%v votes=%d)",
				i, got[i].Exceeded, got[i].Votes, want[i].Exceeded, want[i].Votes)
		}
	}
}

// sameDecision reports whether two runs of one vote agree on the
// decision and, on a deny, on its vote count.
func sameDecision(a, b Outcome) bool {
	return a.Exceeded == b.Exceeded && (!a.Exceeded || a.Votes == b.Votes)
}

// A closed scheduler refuses tokens; the run must still complete through
// its caller with the identical decision.
func TestVoteCompletesOnClosedScheduler(t *testing.T) {
	sched := NewScheduler(2)
	sched.Close()
	barrier := DenyBarrier(256, 0.3)
	ref := Vote(Config{Workers: 1, Seed: 9}, 256, barrier,
		func() struct{} { return struct{}{} },
		func(_ int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return rng.Float64() < 0.4 })
	out := Vote(Config{Workers: 8, Seed: 9, Sched: sched}, 256, barrier,
		func() struct{} { return struct{}{} },
		func(_ int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return rng.Float64() < 0.4 })
	if !sameDecision(out, ref) {
		t.Fatalf("closed-scheduler run diverged: %+v vs %+v", out, ref)
	}
}

// Lanes cap at Workers even when the scheduler could lend more hands, so
// newScratch (potentially expensive: walkers, buffers) runs a bounded
// number of times per decision.
func TestVoteLaneCountBounded(t *testing.T) {
	sched := NewScheduler(8)
	defer sched.Close()
	var mu sync.Mutex
	made := 0
	out := Vote(Config{Workers: 3, Seed: 2, Sched: sched}, 10_000, 10_000,
		func() struct{} {
			mu.Lock()
			made++
			mu.Unlock()
			return struct{}{}
		},
		func(_ int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return rng.Float64() < 0.5 })
	mu.Lock()
	defer mu.Unlock()
	if made > out.Workers {
		t.Fatalf("built %d scratches for a %d-worker decision", made, out.Workers)
	}
	if made == 0 {
		t.Fatal("no scratch was ever built")
	}
}

// A slow sample must not hold back the rest of the budget: with the caller
// or an assist stuck in sample 0, the other hand runs the remaining 63
// samples before sample 0 returns.
func TestSlowSampleDoesNotStallAssists(t *testing.T) {
	sched := NewScheduler(2)
	defer sched.Close()
	const budget = 64
	var others, during atomic.Int64
	out := Vote(Config{Workers: 2, Seed: 1, Sched: sched}, budget, 0,
		func() struct{} { return struct{}{} },
		func(i int, _ *rand.Rand, _ *randx.SplitMix, _ struct{}) bool {
			if i != 0 {
				others.Add(1)
				return false
			}
			deadline := time.Now().Add(2 * time.Second)
			for others.Load() < budget-1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			during.Store(others.Load())
			return false
		})
	if got := during.Load(); got != budget-1 {
		t.Fatalf("%d of %d other samples ran while sample 0 was running", got, budget-1)
	}
	if out.Exceeded || out.Evaluated != budget {
		t.Fatalf("all-safe run at barrier 0: %+v, want an answer over the whole budget", out)
	}
}
