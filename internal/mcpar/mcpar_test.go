package mcpar

import (
	"math/rand"
	"sync"
	"testing"

	"queryaudit/internal/metrics"
	"queryaudit/internal/randx"
)

// fullCount replays the per-sample streams sequentially with no early
// exit — the ground-truth U(seed) every Vote configuration must agree
// with.
func fullCount(seed int64, budget int, sample func(i int, rng *rand.Rand) bool) int {
	votes := 0
	for i := 0; i < budget; i++ {
		if sample(i, randx.Stream(seed, uint64(i))) {
			votes++
		}
	}
	return votes
}

func TestDenyBarrierMatchesFloatComparison(t *testing.T) {
	thresholds := []float64{0, 0.001, 0.01, 1.0 / 3, 0.05, 0.5, 0.9999, 1}
	for _, thr := range thresholds {
		for budget := 1; budget <= 200; budget++ {
			barrier := DenyBarrier(budget, thr)
			for votes := 0; votes <= budget; votes++ {
				histDeny := float64(votes)/float64(budget) > thr
				barDeny := votes > barrier
				if histDeny != barDeny {
					t.Fatalf("budget=%d thr=%g votes=%d: historical=%v barrier(%d)=%v",
						budget, thr, votes, histDeny, barrier, barDeny)
				}
			}
		}
	}
}

// The decision must be a pure function of the seed — identical at every
// worker count, and identical to the no-early-exit ground truth.
func TestVoteDecisionInvariantAcrossWorkers(t *testing.T) {
	sample := func(i int, rng *rand.Rand) bool {
		// A verdict depending on both the index and the stream exercises
		// the counter-based keying.
		return rng.Float64() < 0.3 || (i%17 == 0 && rng.Intn(4) == 0)
	}
	for _, budget := range []int{1, 7, 64, 200} {
		for _, thr := range []float64{0.1, 0.3, 0.5} {
			barrier := DenyBarrier(budget, thr)
			for seed := int64(0); seed < 10; seed++ {
				want := fullCount(seed, budget, sample) > barrier
				for _, workers := range []int{1, 2, 3, 8} {
					out := Vote(Config{Workers: workers, Seed: seed}, budget, barrier,
						func() struct{} { return struct{}{} },
						func(i int, rng *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return sample(i, rng) })
					if out.Exceeded != want {
						t.Fatalf("budget=%d thr=%g seed=%d workers=%d: Exceeded=%v want %v",
							budget, thr, seed, workers, out.Exceeded, want)
					}
					if out.Workers < 1 {
						t.Fatalf("resolved workers %d", out.Workers)
					}
				}
			}
		}
	}
}

func TestVoteEarlyExitOnDeny(t *testing.T) {
	const budget = 10_000
	out := Vote(Config{Workers: 1, Seed: 1}, budget, 3,
		func() struct{} { return struct{}{} },
		func(int, *rand.Rand, *randx.SplitMix, struct{}) bool { return true })
	if !out.Exceeded {
		t.Fatal("all-unsafe run must deny")
	}
	if out.Evaluated != 4 {
		t.Fatalf("sequential deny exit after barrier+1 samples: evaluated %d, want 4", out.Evaluated)
	}
}

func TestVoteEarlyExitOnProvableAnswer(t *testing.T) {
	const budget = 10_000
	// barrier = budget-1: answering is certain once one safe sample makes
	// votes ≤ barrier unreachable... use a high barrier so the answer
	// certificate fires almost immediately.
	out := Vote(Config{Workers: 1, Seed: 1}, budget, budget-1,
		func() struct{} { return struct{}{} },
		func(int, *rand.Rand, *randx.SplitMix, struct{}) bool { return false })
	if out.Exceeded {
		t.Fatal("all-safe run must answer")
	}
	if out.Evaluated >= budget {
		t.Fatalf("answer certificate never fired: evaluated %d of %d", out.Evaluated, budget)
	}
}

func TestVoteParallelEarlyExitStops(t *testing.T) {
	const budget = 100_000
	out := Vote(Config{Workers: 8, Seed: 1}, budget, 3,
		func() struct{} { return struct{}{} },
		func(int, *rand.Rand, *randx.SplitMix, struct{}) bool { return true })
	if !out.Exceeded {
		t.Fatal("all-unsafe run must deny")
	}
	// Scheduling may let each worker land a few extra samples, but the
	// stop flag must keep the total nowhere near the budget.
	if out.Evaluated > budget/10 {
		t.Fatalf("early exit ineffective: evaluated %d of %d", out.Evaluated, budget)
	}
}

// Each worker must own a private rng and a private scratch: the engine's
// isolation contract, enforced under -race by CI. The test also checks
// the pairing directly — a scratch value never sees two different rngs,
// and two scratches never share one rng.
func TestVoteNoSharedRNGAcrossWorkers(t *testing.T) {
	type scratch struct{ rng *rand.Rand }
	var (
		mu     sync.Mutex
		owners = map[*rand.Rand]*scratch{}
	)
	const workers = 8
	out := Vote(Config{Workers: workers, Seed: 5}, 4096, 4096,
		func() *scratch { return &scratch{} },
		func(_ int, rng *rand.Rand, _ *randx.SplitMix, sc *scratch) bool {
			if sc.rng == nil {
				sc.rng = rng
				mu.Lock()
				if prev, ok := owners[rng]; ok && prev != sc {
					mu.Unlock()
					t.Error("rng shared across two scratches")
					return false
				}
				owners[rng] = sc
				mu.Unlock()
			} else if sc.rng != rng {
				t.Error("worker's rng changed between samples")
			}
			return rng.Float64() < 0.5
		})
	if out.Workers != workers {
		t.Fatalf("resolved %d workers, want %d", out.Workers, workers)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(owners) == 0 || len(owners) > workers {
		t.Fatalf("saw %d distinct rngs for %d workers", len(owners), workers)
	}
}

// TestVoteObserverAccounting: one Vote run reports its outcome to the
// MC collector and its token split to the scheduler's collector.
func TestVoteObserverAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	sched := NewScheduler(2)
	defer sched.Close()
	sched.SetObserver(metrics.NewSchedCollector(reg))
	out := Vote(Config{Workers: 2, Seed: 3, Observer: metrics.NewMCCollector(reg), Sched: sched}, 64, 64,
		func() struct{} { return struct{}{} },
		func(i int, _ *rand.Rand, _ *randx.SplitMix, _ struct{}) bool { return i%2 == 0 })
	snap := reg.Snapshot()
	want := map[string]int64{
		"mc_decisions_total":     1,
		"mc_samples_total":       int64(out.Evaluated),
		"mc_samples_saved_total": int64(64 - out.Evaluated),
		"mc_unsafe_votes_total":  int64(out.Votes),
		"mcsched_runs_total":     1,
		"mcsched_tokens_total":   1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d (outcome %+v)", name, got, v, out)
		}
	}
	if h := snap.Histograms["mc_samples_per_decision"]; h.Count != 1 || h.Sum != float64(out.Evaluated) {
		t.Errorf("mc_samples_per_decision = %+v, want one observation of %d", h, out.Evaluated)
	}
	if h := snap.Histograms["mc_parallel_speedup"]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("mc_parallel_speedup = %+v, want one positive busy/wall ratio", h)
	}
}

func TestResolveWorkers(t *testing.T) {
	if w := (Config{Workers: 16}).resolveWorkers(4); w != 4 {
		t.Fatalf("pool must not exceed budget: got %d", w)
	}
	if w := (Config{Workers: -3}).resolveWorkers(100); w < 1 {
		t.Fatalf("negative knob resolved to %d", w)
	}
	if w := (Config{}).resolveWorkers(1_000_000); w < 1 {
		t.Fatalf("default knob resolved to %d", w)
	}
}
