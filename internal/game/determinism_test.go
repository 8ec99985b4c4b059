package game

import (
	"math/rand"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/maxprob"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// randomSetAttacker poses queries over random sets from a private rng, so
// two attackers built with the same seed pose identical sequences.
func randomSetAttacker(seed int64, n, minSize, spread int, kinds []query.Kind) Attacker {
	rng := randx.New(seed)
	return RandomAttacker{Gen: func() query.Query {
		size := minSize + rng.Intn(spread)
		perm := rng.Perm(n)
		return query.New(kinds[rng.Intn(len(kinds))], perm[:size]...)
	}}
}

// The full privacy-game harness must produce identical answer/deny
// transcripts at Workers=1 and Workers=8 for a fixed seed — the
// user-visible form of the engine's determinism guarantee, across all
// three probabilistic auditors. The parameters are tuned so each
// transcript mixes answers and denials; an all-deny log would exercise
// only one decision path.
func TestGameTranscriptsInvariantAcrossWorkers(t *testing.T) {
	cases := []struct {
		name            string
		n               int
		rounds          int
		minSize, spread int
		attackerSeed    int64
		kinds           []query.Kind
		auditors        func(n, workers int) (map[query.Kind]audit.Auditor, error)
	}{
		{
			name: "maxprob", n: 30, rounds: 12, minSize: 6, spread: 10,
			attackerSeed: 77, kinds: []query.Kind{query.Max},
			auditors: func(n, workers int) (map[query.Kind]audit.Auditor, error) {
				a, err := maxprob.New(n, maxprob.Params{
					Game: mcpar.Game{
						Lambda: 0.45, Gamma: 2, Delta: 0.2, T: 2,
						Workers: workers, Seed: 11,
					},
					Samples: 64,
				})
				return map[query.Kind]audit.Auditor{query.Max: a}, err
			},
		},
		{
			name: "maxminprob", n: 20, rounds: 8, minSize: 5, spread: 8,
			attackerSeed: 78, kinds: []query.Kind{query.Max, query.Min},
			auditors: func(n, workers int) (map[query.Kind]audit.Auditor, error) {
				a, err := maxminprob.New(n, maxminprob.Params{
					Game: mcpar.Game{
						Lambda: 0.45, Gamma: 2, Delta: 0.2, T: 2,
						Workers: workers, Seed: 12,
					},
					OuterSamples: 8, InnerSamples: 8, MixFactor: 1,
				})
				return map[query.Kind]audit.Auditor{query.Max: a, query.Min: a}, err
			},
		},
		{
			name: "sumprob", n: 12, rounds: 6, minSize: 8, spread: 5,
			attackerSeed: 79, kinds: []query.Kind{query.Sum},
			auditors: func(n, workers int) (map[query.Kind]audit.Auditor, error) {
				a, err := sumprob.New(n, sumprob.Params{
					Game: mcpar.Game{
						Lambda: 0.6, Gamma: 2, Delta: 0.2, T: 2,
						Workers: workers, Seed: 13,
					},
					OuterSamples: 6,
				})
				return map[query.Kind]audit.Auditor{query.Sum: a}, err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) []Outcome {
				ds := dataset.UniformDuplicateFree(rand.New(rand.NewSource(99)), tc.n, 0, 1)
				eng := core.NewEngine(ds)
				auds, err := tc.auditors(tc.n, workers)
				if err != nil {
					t.Fatal(err)
				}
				for k, a := range auds {
					eng.Use(a, k)
				}
				att := randomSetAttacker(tc.attackerSeed, tc.n, tc.minSize, tc.spread, tc.kinds)
				return Run(eng, att, tc.rounds)
			}
			want := run(1)
			answered, denied := 0, 0
			for _, o := range want {
				if o.Denied {
					denied++
				} else {
					answered++
				}
			}
			if answered == 0 || denied == 0 {
				t.Fatalf("degenerate transcript (answered=%d denied=%d) exercises only one decision path", answered, denied)
			}
			got := run(8)
			if len(got) != len(want) {
				t.Fatalf("transcript lengths differ: %d vs %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Denied != want[i].Denied || got[i].Answer != want[i].Answer {
					t.Fatalf("round %d: workers=8 gave %+v, workers=1 gave %+v", i, got[i], want[i])
				}
			}
		})
	}
}
