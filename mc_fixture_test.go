// Golden decision fixtures for the probabilistic auditors: a scripted
// game's decisions, frozen in testdata/mc_decisions.json, compared at
// several worker counts. This is the CI drift gate for the Monte Carlo
// engine — any change that shifts a decision (engine scheduling, RNG
// streams, stopping rules, polytope arithmetic) fails here before it can
// silently invalidate persisted session journals, whose replay assumes
// decisions are a pure function of the decision history.
//
// Regenerate deliberately after an intentional semantic change:
//
//	go test -run TestMCDecisionFixtures -update-mc-fixtures .
package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

var updateMCFixtures = flag.Bool("update-mc-fixtures", false, "rewrite testdata/mc_decisions.json from the current engine")

const mcFixturePath = "testdata/mc_decisions.json"

// fixtureAuditor builds one auditor under test at a given worker count.
type fixtureAuditor struct {
	name  string
	kinds []query.Kind
	build func(workers int) (audit.Auditor, error)
}

func fixtureAuditors() []fixtureAuditor {
	const n = 12
	return []fixtureAuditor{
		{
			name:  "sumprob",
			kinds: []query.Kind{query.Sum},
			build: func(workers int) (audit.Auditor, error) {
				return sumprob.New(n, sumprob.Params{
					Game: mcpar.Game{
						Lambda: 0.6, Gamma: 2, Delta: 0.2, T: 2,
						Workers: workers, Seed: 5,
					},
					OuterSamples: 8, InnerSamples: 40,
				})
			},
		},
		{
			name:  "maxminprob",
			kinds: []query.Kind{query.Max, query.Min},
			build: func(workers int) (audit.Auditor, error) {
				return maxminprob.New(n, maxminprob.Params{
					Game: mcpar.Game{
						Lambda: 0.45, Gamma: 2, Delta: 0.2, T: 4,
						Workers: workers, Seed: 6,
					},
					OuterSamples: 8, InnerSamples: 8, MixFactor: 1,
				})
			},
		},
	}
}

// playFixture runs the deterministic scripted game: pseudo-random query
// sets over a fixed dataset, recording each answered query's true
// answer, and returns the decision sequence as strings.
func playFixture(t *testing.T, fa fixtureAuditor, workers int) []string {
	t.Helper()
	const n, rounds = 12, 16
	ds := dataset.UniformDuplicateFree(randx.New(9), n, 0, 1)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ds.Sensitive(i)
	}
	a, err := fa.build(workers)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(77)
	out := make([]string, 0, rounds)
	for r := 0; r < rounds; r++ {
		size := 1 + rng.Intn(n-1)
		perm := rng.Perm(n)
		q := query.New(fa.kinds[rng.Intn(len(fa.kinds))], perm[:size]...)
		dec, err := a.Decide(q)
		switch {
		case err != nil:
			out = append(out, "error")
		case dec == audit.Deny:
			out = append(out, "deny")
		default:
			out = append(out, "answer")
			a.Record(q, q.Eval(xs))
		}
	}
	return out
}

// TestMCDecisionFixtures replays the scripted games at worker counts
// {1, 4} and compares every decision to the frozen fixtures.
func TestMCDecisionFixtures(t *testing.T) {
	got := map[string][]string{}
	for _, fa := range fixtureAuditors() {
		seq := playFixture(t, fa, 1)
		answered, denied := 0, 0
		for _, d := range seq {
			switch d {
			case "answer":
				answered++
			case "deny":
				denied++
			}
		}
		if answered == 0 || denied == 0 {
			t.Fatalf("%s: degenerate fixture (answered=%d denied=%d) exercises only one decision path", fa.name, answered, denied)
		}
		for _, workers := range []int{4} {
			par := playFixture(t, fa, workers)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: decisions at workers=%d diverge from workers=1:\n  %v\n  %v", fa.name, workers, seq, par)
			}
		}
		got[fa.name] = seq
	}

	if *updateMCFixtures {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(mcFixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mcFixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", mcFixturePath)
		return
	}

	data, err := os.ReadFile(mcFixturePath)
	if err != nil {
		t.Fatalf("reading fixtures (run with -update-mc-fixtures to generate): %v", err)
	}
	want := map[string][]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", mcFixturePath, err)
	}
	for name, seq := range got {
		if !reflect.DeepEqual(want[name], seq) {
			t.Errorf("%s: decisions drifted from %s:\n  fixture: %v\n  current: %v\n(regenerate with -update-mc-fixtures ONLY for an intentional semantic change — drift invalidates persisted session journals)",
				name, mcFixturePath, want[name], seq)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("fixture %q has no corresponding auditor case", name)
		}
	}
}
