package session

import (
	"fmt"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// The eviction/replay determinism property — the tentpole's correctness
// claim: for a simulatable auditor stack, a session evicted (and later
// rebuilt by replaying its journal) produces a transcript bit-identical
// to an uninterrupted run, for both the exact-disclosure and the
// probabilistic auditors, at any Monte Carlo worker count.

// step is one scripted move in the game: a query or a dataset update.
type step struct {
	q      query.Query
	update bool
	idx    int
	val    float64
}

// outcome is the observable result of one step, compared bitwise.
type outcome struct {
	denied bool
	answer float64
	errStr string
}

// script generates a deterministic pseudo-random game over n records.
// Updates are interleaved only when withUpdates (the probabilistic
// auditors do not observe updates).
func script(seed int64, n, rounds int, kinds []query.Kind, withUpdates bool) []step {
	rng := randx.New(seed)
	var steps []step
	for i := 0; i < rounds; i++ {
		if withUpdates && i > 0 && i%5 == 0 {
			steps = append(steps, step{update: true, idx: rng.Intn(n), val: float64(rng.Intn(50) + 1)})
			continue
		}
		size := 1 + rng.Intn(n-1)
		perm := rng.Perm(n)
		steps = append(steps, step{q: query.New(kinds[rng.Intn(len(kinds))], perm[:size]...)})
	}
	return steps
}

// play runs the script against one analyst's session, optionally
// evicting the engine after EVERY step so each subsequent step replays
// the whole journal.
func play(t *testing.T, m *Manager, analyst string, steps []step, evictEach bool) []outcome {
	t.Helper()
	var out []outcome
	for _, st := range steps {
		var o outcome
		if st.update {
			if err := m.Update(st.idx, st.val); err != nil {
				t.Fatalf("update %d: %v", st.idx, err)
			}
		} else {
			resp, err := m.Ask(analyst, st.q)
			o = outcome{denied: resp.Denied, answer: resp.Answer}
			if err != nil {
				o.errStr = err.Error()
			}
		}
		out = append(out, o)
		if evictEach {
			m.EvictEngine(analyst)
		}
	}
	return out
}

// family bundles one auditor configuration under test.
type family struct {
	name        string
	n, rounds   int
	kinds       []query.Kind
	withUpdates bool
	makeDS      func() *dataset.Dataset
	makeSpec    func(ds *dataset.Dataset) *core.EngineSpec
}

func probSpec(ds *dataset.Dataset, workers int) *core.EngineSpec {
	sp := core.NewEngineSpec(ds)
	n := ds.N()
	sp.Register(func() (audit.Auditor, error) {
		return maxminprob.New(n, maxminprob.Params{
			Game: mcpar.Game{
				Lambda: 0.45, Gamma: 2, Delta: 0.2, T: 2,
				Workers: workers, Seed: 12,
			},
			OuterSamples: 8, InnerSamples: 8, MixFactor: 1,
		})
	}, query.Max, query.Min)
	sp.Register(func() (audit.Auditor, error) {
		return sumprob.New(n, sumprob.Params{
			Game: mcpar.Game{
				Lambda: 0.6, Gamma: 2, Delta: 0.2, T: 2,
				Workers: workers, Seed: 13,
			},
			OuterSamples: 6,
		})
	}, query.Sum)
	return sp
}

func determinismFamilies() []family {
	fams := []family{{
		name: "full", n: 12, rounds: 24,
		kinds:       []query.Kind{query.Sum, query.Max, query.Min, query.Count},
		withUpdates: true,
		makeDS: func() *dataset.Dataset {
			return dataset.UniformDuplicateFree(randx.New(7), 12, 1, 100)
		},
		makeSpec: func(ds *dataset.Dataset) *core.EngineSpec { return fullSpec(ds) },
	}}
	for _, workers := range []int{1, 8} {
		w := workers
		fams = append(fams, family{
			name: fmt.Sprintf("prob-workers-%d", w), n: 12, rounds: 10,
			kinds: []query.Kind{query.Sum, query.Max, query.Min},
			makeDS: func() *dataset.Dataset {
				// The Section 3 auditors protect values normalized to [0,1].
				return dataset.UniformDuplicateFree(randx.New(9), 12, 0, 1)
			},
			makeSpec: func(ds *dataset.Dataset) *core.EngineSpec { return probSpec(ds, w) },
		})
	}
	return fams
}

func (f family) newManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(f.makeSpec(f.makeDS()), Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func compareTranscripts(t *testing.T, label string, want, got []outcome) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: transcript lengths differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: step %d diverged: uninterrupted %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

// TestEvictReplayTranscriptIdentical evicts the analyst's engine after
// every single step, forcing a full journal replay per step, and
// requires the transcript to match an uninterrupted run exactly.
func TestEvictReplayTranscriptIdentical(t *testing.T) {
	for _, f := range determinismFamilies() {
		t.Run(f.name, func(t *testing.T) {
			steps := script(42, f.n, f.rounds, f.kinds, f.withUpdates)
			base := play(t, f.newManager(t), "alice", steps, false)
			answered, denied := 0, 0
			for _, o := range base {
				if o.errStr != "" {
					continue
				}
				if o.denied {
					denied++
				} else {
					answered++
				}
			}
			if answered == 0 || denied == 0 {
				t.Fatalf("degenerate transcript (answered=%d denied=%d) exercises only one decision path", answered, denied)
			}
			evicted := play(t, f.newManager(t), "alice", steps, true)
			compareTranscripts(t, "evict-each-step", base, evicted)
		})
	}
}

// TestSnapshotRestoreMidGame interrupts the game at the midpoint,
// carries the session across a simulated restart (LogSnapshots →
// Restore into a fresh manager over an identically-mutated dataset),
// and requires the remainder of the game to match the uninterrupted run.
func TestSnapshotRestoreMidGame(t *testing.T) {
	for _, f := range determinismFamilies() {
		t.Run(f.name, func(t *testing.T) {
			steps := script(43, f.n, f.rounds, f.kinds, f.withUpdates)
			base := play(t, f.newManager(t), "alice", steps, false)

			mid := len(steps) / 2
			m1 := f.newManager(t)
			first := play(t, m1, "alice", steps[:mid], false)
			snaps := m1.LogSnapshots()

			m2 := f.newManager(t)
			// A restarting process reloads the dataset with its mutations;
			// simulate by re-applying the first half's updates.
			for _, st := range steps[:mid] {
				if st.update {
					m2.Dataset().SetSensitive(st.idx, st.val)
				}
			}
			if err := m2.Restore(snaps); err != nil {
				t.Fatal(err)
			}
			second := play(t, m2, "alice", steps[mid:], false)
			compareTranscripts(t, "restart", base, append(first, second...))
		})
	}
}

// TestReplayAcrossWorkerCounts: a session journaled at Workers=1 replays
// bit-identically into engines built with Workers=8 — worker count is a
// performance knob, never a semantic one, so logs are portable across
// deployment resizes.
func TestReplayAcrossWorkerCounts(t *testing.T) {
	steps := script(44, 12, 10, []query.Kind{query.Sum, query.Max, query.Min}, false)
	makeDS := func() *dataset.Dataset { return dataset.UniformDuplicateFree(randx.New(9), 12, 0, 1) }

	m1, err := NewManager(probSpec(makeDS(), 1), Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	play(t, m1, "alice", steps, false)
	snaps := m1.LogSnapshots()

	m8, err := NewManager(probSpec(makeDS(), 8), Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m8.Close()
	if err := m8.Restore(snaps); err != nil {
		t.Fatalf("replay at workers=8 of a workers=1 journal: %v", err)
	}
	// Continue the game on the restored 8-worker manager and on the
	// original: identical futures.
	more := script(45, 12, 6, []query.Kind{query.Sum, query.Max, query.Min}, false)
	compareTranscripts(t, "continuation", play(t, m1, "alice", more, false), play(t, m8, "alice", more, false))
}
