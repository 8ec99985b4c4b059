package mcpar

import (
	"math/rand"
	"sync"
	"testing"

	"queryaudit/internal/randx"
)

// The overshoot bound from the claim window: however samples land across
// the caller and the assist pool, at most Workers samples beyond the
// deterministic certificate point ever run.
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
			if out.Evaluated > out.CertPoint+out.Workers {
				t.Fatalf("workers=%d seed=%d: evaluated %d > certificate point %d + workers %d",
					workers, seed, out.Evaluated, out.CertPoint, out.Workers)
			}
			if out.Evaluated < out.CertPoint {
				t.Fatalf("workers=%d seed=%d: evaluated %d below certificate point %d",
					workers, seed, out.Evaluated, out.CertPoint)
			}
		}
	}
}

// CertPoint and Votes — not just the decision — must be bit-identical at
// every worker count: the frontier commits prefixes in index order, so
// the stop point is a pure function of the seed. Workers=1 is the
// sequential reference the parallel configurations must match exactly.
func TestVoteCertPointInvariantAcrossWorkers(t *testing.T) {
	sched := NewScheduler(4)
	defer sched.Close()
	for _, budget := range []int{16, 200, 3000} {
		for _, thr := range []float64{0.05, 0.3, 0.7} {
			barrier := DenyBarrier(budget, thr)
			for seed := int64(0); seed < 8; seed++ {
				var want Outcome
				for wi, workers := range []int{1, 2, 8} {
					out := Vote(Config{Workers: workers, Seed: seed, Sched: sched}, budget, barrier,
						func() struct{} { return struct{}{} },
						func(_ int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return rng.Float64() < 0.31 })
					if wi == 0 {
						want = out
						continue
					}
					if out.Exceeded != want.Exceeded || out.CertPoint != want.CertPoint || out.Votes != want.Votes {
						t.Fatalf("budget=%d thr=%g seed=%d workers=%d: (deny=%v cert=%d votes=%d), sequential (deny=%v cert=%d votes=%d)",
							budget, thr, seed, workers,
							out.Exceeded, out.CertPoint, out.Votes,
							want.Exceeded, want.CertPoint, want.Votes)
					}
				}
			}
		}
	}
}

// Many concurrent Vote runs multiplexed over one small scheduler — the
// serving shape of many analysts' sessions deciding at once — must each
// reach the same decision, certificate point and vote count as the same
// run executed alone and sequentially. Run under -race in CI.
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
		if got[i].Exceeded != want[i].Exceeded || got[i].CertPoint != want[i].CertPoint || got[i].Votes != want[i].Votes {
			t.Fatalf("run %d diverged under concurrent scheduling: (deny=%v cert=%d votes=%d), want (deny=%v cert=%d votes=%d)",
				i, got[i].Exceeded, got[i].CertPoint, got[i].Votes,
				want[i].Exceeded, want[i].CertPoint, want[i].Votes)
		}
	}
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
	if out.Exceeded != ref.Exceeded || out.CertPoint != ref.CertPoint || out.Votes != ref.Votes {
		t.Fatalf("closed-scheduler run diverged: %+v vs %+v", out, ref)
	}
}

// The adaptive sequential test must (a) stop earlier than the exact
// certificates when the unsafe fraction sits far from the barrier, and
// (b) remain a pure function of the seed — same stop point and decision
// at every worker count.
func TestVoteAdaptiveStopsEarlyAndDeterministically(t *testing.T) {
	sched := NewScheduler(4)
	defer sched.Close()
	const budget = 4096
	barrier := DenyBarrier(budget, 0.5)
	// Unsafe fraction ~0.1, far below the 0.5 barrier: the exact answer
	// certificate needs ~half the budget, the adaptive test a few dozen.
	sample := func(_ int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return rng.Float64() < 0.1 }

	exact := Vote(Config{Workers: 1, Seed: 7}, budget, barrier,
		func() struct{} { return struct{}{} }, sample)
	if exact.Adaptive {
		t.Fatal("alpha=0 run reported an adaptive stop")
	}

	var want Outcome
	for wi, workers := range []int{1, 2, 8} {
		out := Vote(Config{Workers: workers, Seed: 7, Sched: sched, AdaptiveAlpha: 0.05}, budget, barrier,
			func() struct{} { return struct{}{} }, sample)
		if !out.Adaptive {
			t.Fatalf("workers=%d: adaptive rule never fired (cert=%d)", workers, out.CertPoint)
		}
		if out.Exceeded {
			t.Fatalf("workers=%d: 10%% unsafe vs 50%% barrier must answer", workers)
		}
		if out.CertPoint >= exact.CertPoint {
			t.Fatalf("workers=%d: adaptive stop %d not earlier than exact certificate %d",
				workers, out.CertPoint, exact.CertPoint)
		}
		if wi == 0 {
			want = out
			continue
		}
		if out.CertPoint != want.CertPoint || out.Votes != want.Votes || out.Exceeded != want.Exceeded {
			t.Fatalf("workers=%d: adaptive stop diverged (cert=%d votes=%d) vs (cert=%d votes=%d)",
				workers, out.CertPoint, out.Votes, want.CertPoint, want.Votes)
		}
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
