package core

import (
	"errors"
	"testing"

	"queryaudit/internal/audit/naive"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
)

// journal collects DecisionEvents for tests.
type journal struct {
	events []DecisionEvent
}

func (j *journal) RecordDecision(ev DecisionEvent) { j.events = append(j.events, ev) }

func fullSpec(t *testing.T, ds *dataset.Dataset) *EngineSpec {
	t.Helper()
	sp := NewEngineSpec(ds)
	n := ds.N()
	if err := (StackConfig{Family: "full", N: n}).RegisterAuditors(sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestEngineSpecBuildIsolated: two engines from one spec hold independent
// auditor instances — history on one never leaks into the other.
func TestEngineSpecBuildIsolated(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3, 4, 5})
	sp := fullSpec(t, ds)
	a, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust a's sum budget: total then a complement missing one record
	// must be denied on a...
	all := query.New(query.Sum, 0, 1, 2, 3, 4)
	rest := query.New(query.Sum, 1, 2, 3, 4)
	if resp, err := a.Ask(all); err != nil || resp.Denied {
		t.Fatalf("total on a: %+v %v", resp, err)
	}
	if resp, err := a.Ask(rest); err != nil || !resp.Denied {
		t.Fatalf("complement on a should be denied: %+v %v", resp, err)
	}
	// ...while b, which never saw the total, answers the same complement.
	if resp, err := b.Ask(rest); err != nil || resp.Denied {
		t.Fatalf("complement on fresh b should be answered: %+v %v", resp, err)
	}
}

// TestReplayRebuildsEngine: journal a mixed answered/denied game, replay
// it into a fresh engine from the same spec, and check the rebuilt
// engine agrees with the original on counters and on the next decision.
func TestReplayRebuildsEngine(t *testing.T) {
	ds := dataset.FromValues([]float64{3, 1, 4, 1.5, 9, 2.6})
	sp := fullSpec(t, ds)
	live, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	j := &journal{}
	live.SetRecorder(j)

	game := []query.Query{
		query.New(query.Sum, 0, 1, 2, 3, 4, 5),
		query.New(query.Sum, 1, 2, 3, 4, 5), // denied: complement of the total
		query.New(query.Max, 0, 1, 2),
		query.New(query.Count, 2, 3),
		query.New(query.Avg, 0, 1), // journaled as its inner sum
		query.New(query.Min, 3, 4, 5),
	}
	for _, q := range game {
		if _, err := live.Ask(q); err != nil {
			t.Fatalf("ask %v: %v", q, err)
		}
	}
	if len(j.events) != len(game) {
		t.Fatalf("journaled %d events, want %d", len(j.events), len(game))
	}
	for _, ev := range j.events {
		if ev.Query.Kind == query.Avg {
			t.Fatalf("avg leaked into the journal: %+v", ev)
		}
	}

	rebuilt, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range j.events {
		if err := rebuilt.Replay(ev); err != nil {
			t.Fatalf("replay event %d (%+v): %v", i, ev, err)
		}
	}
	ls, rs := live.Stats(), rebuilt.Stats()
	if ls.Answered != rs.Answered || ls.Denied != rs.Denied {
		t.Fatalf("stats diverge: live %+v rebuilt %+v", ls, rs)
	}
	// Both engines must agree on a decision that depends on the whole
	// history (another complement probe).
	probe := query.New(query.Sum, 0, 1)
	lr, err1 := live.Ask(probe)
	rr, err2 := rebuilt.Ask(probe)
	if err1 != nil || err2 != nil {
		t.Fatalf("probe errors: %v %v", err1, err2)
	}
	if lr.Denied != rr.Denied || lr.Answer != rr.Answer {
		t.Fatalf("probe diverged: live %+v rebuilt %+v", lr, rr)
	}
}

// TestReplayUsesLoggedAnswer: replay commits the journaled answer, never
// re-evaluating a dataset that may have changed since.
func TestReplayUsesLoggedAnswer(t *testing.T) {
	ds := dataset.FromValues([]float64{10, 20})
	sp := fullSpec(t, ds)
	live, _ := sp.Build()
	j := &journal{}
	live.SetRecorder(j)
	if _, err := live.Ask(query.New(query.Sum, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if j.events[0].Answer != 30 {
		t.Fatalf("logged answer %v, want 30", j.events[0].Answer)
	}
	// Mutate the dataset out from under the log, then replay: the rebuilt
	// auditor must hold the ORIGINAL answer 30 (the only value the live
	// auditor ever saw), which pins sum{0,1}=30 — so sum{0} would release
	// record 1 exactly and must be denied, same as on the live engine.
	ds.SetSensitive(0, 1000)
	rebuilt, _ := sp.Build()
	if err := rebuilt.Replay(j.events[0]); err != nil {
		t.Fatal(err)
	}
	resp, err := rebuilt.Ask(query.New(query.Sum, 0))
	if err != nil || !resp.Denied {
		t.Fatalf("single record after replayed total should be denied: %+v %v", resp, err)
	}
}

// TestReplayDivergence: a tampered log (denied flipped to answered) is
// detected as ErrReplayDiverged.
func TestReplayDivergence(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3})
	sp := fullSpec(t, ds)
	live, _ := sp.Build()
	j := &journal{}
	live.SetRecorder(j)
	if _, err := live.Ask(query.New(query.Sum, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Ask(query.New(query.Sum, 1, 2)); err != nil {
		t.Fatal(err)
	}
	rebuilt, _ := sp.Build()
	if err := rebuilt.Replay(j.events[0]); err != nil {
		t.Fatal(err)
	}
	tampered := j.events[1]
	if tampered.Outcome != OutcomeDenied {
		t.Fatalf("setup: complement should have been denied, got %+v", tampered)
	}
	tampered.Outcome = OutcomeAnswered
	tampered.Answer = 5
	if err := rebuilt.Replay(tampered); !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("tampered outcome: got %v, want ErrReplayDiverged", err)
	}
}

// TestReplayRejectsBadEvents: avg events, empty sets, out-of-range
// indices and naive auditors are all refused.
func TestReplayRejectsBadEvents(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3})
	eng, _ := fullSpec(t, ds).Build()
	cases := []DecisionEvent{
		{Query: query.New(query.Avg, 0, 1), Outcome: OutcomeAnswered, Answer: 1.5},
		{Query: query.Query{Kind: query.Sum}, Outcome: OutcomeAnswered},
		{Query: query.New(query.Sum, 0, 99), Outcome: OutcomeAnswered, Answer: 1},
	}
	for _, ev := range cases {
		if err := eng.Replay(ev); !errors.Is(err, ErrReplayDiverged) {
			t.Fatalf("%+v: got %v, want ErrReplayDiverged", ev, err)
		}
	}
	// Count logged as denied can only come from a corrupt log.
	if err := eng.Replay(DecisionEvent{Query: query.New(query.Count, 0), Outcome: OutcomeDenied}); !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("denied count: want ErrReplayDiverged, got %v", err)
	}

	naiveEng := NewEngine(ds)
	naiveEng.UseAnswerDependent(naive.NewMax(ds.N()), query.Max)
	err := naiveEng.Replay(DecisionEvent{Query: query.New(query.Max, 0, 1), Outcome: OutcomeAnswered, Answer: 2})
	if err == nil {
		t.Fatal("naive replay should be refused")
	}
}

// TestSupportsUpdatesAndNoteUpdate: the full stack supports updates;
// NoteUpdate retires constraints exactly like Update without touching
// the dataset.
func TestSupportsUpdatesAndNoteUpdate(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3, 4})
	sp := fullSpec(t, ds)
	eng, _ := sp.Build()
	if !eng.SupportsUpdates() {
		t.Fatal("full stack should support updates")
	}
	// Pin the total, then retire it via NoteUpdate: the complement that
	// was unsafe becomes answerable because the constraint is stale.
	if resp, err := eng.Ask(query.New(query.Sum, 0, 1, 2, 3)); err != nil || resp.Denied {
		t.Fatalf("total: %+v %v", resp, err)
	}
	if resp, err := eng.Ask(query.New(query.Sum, 1, 2, 3)); err != nil || !resp.Denied {
		t.Fatalf("complement should be denied pre-update: %+v %v", resp, err)
	}
	mods := ds.Modifications()
	if err := eng.NoteUpdate(0); err != nil {
		t.Fatal(err)
	}
	if ds.Modifications() != mods {
		t.Fatal("NoteUpdate must not touch the dataset")
	}
	// The complement stays denied (it would reveal record 0's OLD value;
	// past values are protected too), but a query referencing the fresh
	// version of record 0 is answerable — the paper's update example.
	if resp, err := eng.Ask(query.New(query.Sum, 1, 2, 3)); err != nil || !resp.Denied {
		t.Fatalf("past-value reveal must stay denied: %+v %v", resp, err)
	}
	if resp, err := eng.Ask(query.New(query.Sum, 0, 1)); err != nil || resp.Denied {
		t.Fatalf("fresh-version query should pass: %+v %v", resp, err)
	}
	if err := eng.NoteUpdate(-1); err == nil {
		t.Fatal("out-of-range NoteUpdate should fail")
	}
}

// TestOutcomeRoundTrip: String/ParseOutcome invert each other.
func TestOutcomeRoundTrip(t *testing.T) {
	for _, o := range []Outcome{OutcomeAnswered, OutcomeDenied, OutcomeErrored} {
		got, err := ParseOutcome(o.String())
		if err != nil || got != o {
			t.Fatalf("round trip %v: %v %v", o, got, err)
		}
	}
	if _, err := ParseOutcome("bogus"); err == nil {
		t.Fatal("bogus outcome should not parse")
	}
	if s := Outcome(99).String(); s != "Outcome(99)" {
		t.Fatalf("unknown outcome string %q", s)
	}
}
