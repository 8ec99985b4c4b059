package auditlog

import (
	"encoding/json"
	"fmt"
	"testing"

	"queryaudit/internal/core"
	"queryaudit/internal/session"
)

// newTestManager builds a live session manager over the stack — the
// "live server" half of the replay equivalence tests.
func newTestManager(t *testing.T, stack core.StackConfig) *session.Manager {
	t.Helper()
	spec := core.NewEngineSpec(stack.NewDataset())
	if err := stack.RegisterAuditors(spec); err != nil {
		t.Fatal(err)
	}
	mgr, err := session.NewManager(spec, session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr
}

// statements is a small workload whose later sums are refused by the
// full auditors (overlapping sets), so both outcomes appear in logs.
var testStatements = []string{
	"SELECT sum(salary) WHERE age >= 21",
	"SELECT sum(salary) WHERE age >= 30",
	"SELECT max(salary) WHERE dept = 'eng'",
	"SELECT sum(salary) WHERE age BETWEEN 30 AND 50",
	"SELECT min(salary) WHERE age >= 40",
	"SELECT avg(salary) WHERE age >= 25",
}

// driveLive runs the workload for several analysts against a live
// stack, returning the journal bytes (array of snapshots) plus the
// live outcome ledger per analyst in issue order.
func driveLive(t *testing.T, stack core.StackConfig, analysts []string) ([]byte, map[string][]core.Response) {
	t.Helper()
	mgr := newTestManager(t, stack)
	live := map[string][]core.Response{}
	for _, analyst := range analysts {
		for _, sql := range testStatements {
			q, err := core.ResolveSQL(mgr.Resolver(), "salary", sql)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := mgr.Ask(analyst, q)
			if err != nil {
				t.Fatalf("ask %q: %v", sql, err)
			}
			live[analyst] = append(live[analyst], resp)
		}
	}
	var snaps []session.LogSnapshot
	for _, analyst := range analysts {
		snap, ok := mgr.Export(analyst)
		if !ok {
			t.Fatalf("no session for %q", analyst)
		}
		snaps = append(snaps, snap)
	}
	data, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	return data, live
}

// TestReplayJournalBitForBit: replaying exported journals through a
// construction-identical offline stack reproduces every recorded
// verdict — zero mismatches, every entry compared.
func TestReplayJournalBitForBit(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 60, Seed: 3}
	analysts := []string{"alice", "bob", "carol"}
	data, live := driveLive(t, stack, analysts)

	entries, _, err := ParseBytes(data, "journal", FormatJournal)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		entries[i].Pos = i
	}
	rp := &Replayer{Stack: stack, Workers: 2}
	result, err := rp.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if result.Mismatches != 0 {
		t.Fatalf("journal replay diverged: %d mismatches", result.Mismatches)
	}
	if result.Compared != len(entries) {
		t.Fatalf("compared %d of %d entries", result.Compared, len(entries))
	}
	if len(result.Analysts) != len(analysts) {
		t.Fatalf("got %d analysts", len(result.Analysts))
	}
	// The offline denial tally must equal the live one, per analyst.
	for _, a := range result.Analysts {
		denied := 0
		for _, resp := range live[a.Analyst] {
			if resp.Denied {
				denied++
			}
		}
		if a.Denied != denied {
			t.Fatalf("analyst %s: offline denied=%d, live denied=%d", a.Analyst, a.Denied, denied)
		}
		if len(a.Proximity) == 0 {
			t.Fatalf("analyst %s: no proximity report", a.Analyst)
		}
	}
}

// TestReplaySQLBitForBit: external-log entries (SQL + recorded outcome
// + recorded answer, the loadgen emission shape) re-resolve and
// re-decide to the same verdicts and the same released values.
func TestReplaySQLBitForBit(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 60, Seed: 3}
	mgr := newTestManager(t, stack)
	var entries []Entry
	for _, sql := range testStatements {
		q, err := core.ResolveSQL(mgr.Resolver(), "salary", sql)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := mgr.Ask("alice", q)
		if err != nil {
			t.Fatal(err)
		}
		e := Entry{Analyst: "alice", Op: OpQuery, SQL: sql}
		if resp.Denied {
			e.Outcome = "denied"
		} else {
			e.Outcome = "answered"
			e.Answer = resp.Answer
			e.HasAnswer = true
		}
		e.Pos = len(entries)
		entries = append(entries, e)
	}
	rp := &Replayer{Stack: stack}
	result, err := rp.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if result.Mismatches != 0 || result.Compared != len(entries) {
		t.Fatalf("sql replay: compared=%d mismatches=%d (want %d/0): %+v",
			result.Compared, result.Mismatches, len(entries), result.Analysts[0].Verdicts)
	}
}

// TestReplayDetectsTamper: flipping one recorded outcome makes the
// diff report exactly that divergence.
func TestReplayDetectsTamper(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 60, Seed: 3}
	data, _ := driveLive(t, stack, []string{"alice"})
	entries, _, err := ParseBytes(data, "journal", FormatJournal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the first answered entry to denied (bypassing the journal
	// digest by editing the parsed stream, as a corrupted external
	// pipeline would).
	flipped := -1
	for i := range entries {
		if entries[i].Outcome == "answered" {
			entries[i].Outcome = "denied"
			entries[i].Answer = 0
			entries[i].HasAnswer = false
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("no answered entry to tamper with")
	}
	rp := &Replayer{Stack: stack}
	result, err := rp.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if result.Mismatches == 0 {
		t.Fatal("tampered outcome not detected")
	}
}

// TestReplayJournalWithUpdates: update markers replay through
// NoteUpdate and the post-update history still verifies bit-for-bit.
func TestReplayJournalWithUpdates(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 30, Seed: 5}
	mgr := newTestManager(t, stack)
	ask := func(sql string) {
		q, err := core.ResolveSQL(mgr.Resolver(), "salary", sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Ask("alice", q); err != nil {
			t.Fatal(err)
		}
	}
	ask("SELECT sum(salary) WHERE age >= 21")
	if err := mgr.Update(3, 12345); err != nil {
		t.Fatal(err)
	}
	ask("SELECT sum(salary) WHERE age >= 21")
	snap, ok := mgr.Export("alice")
	if !ok {
		t.Fatal("no session")
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := ParseBytes(data, "journal", FormatJournal)
	if err != nil {
		t.Fatal(err)
	}
	rp := &Replayer{Stack: stack}
	result, err := rp.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if result.Mismatches != 0 {
		t.Fatalf("replay with updates diverged: %+v", result.Analysts[0].Verdicts)
	}
	if result.Analysts[0].Updates != 1 {
		t.Fatalf("updates = %d, want 1", result.Analysts[0].Updates)
	}
}

// TestReplayProbBitForBit: the probabilistic stack is seed-
// deterministic, so journal replay against the same prob parameters
// also verifies bit-for-bit, and the whole result is identical across
// runs and worker counts.
func TestReplayProbBitForBit(t *testing.T) {
	stack := core.StackConfig{Family: "prob", N: 24, Seed: 3, Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, ProbSeed: 7}
	data, _ := driveLive(t, stack, []string{"alice", "bob"})
	entries, _, err := ParseBytes(data, "journal", FormatJournal)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ReplayResult {
		rp := &Replayer{Stack: stack, Workers: workers}
		result, err := rp.Replay(entries)
		if err != nil {
			t.Fatal(err)
		}
		return result
	}
	r1 := run(1)
	if r1.Mismatches != 0 {
		t.Fatalf("prob journal replay diverged: %d mismatches", r1.Mismatches)
	}
	r2 := run(4)
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatal("replay result depends on worker count")
	}
}

// TestReplaySkipsTransportErrors: outcome "error" lines (transport
// failures) are skipped, and later entries still verify — the skip
// policy must not desynchronize the stack when the failed query never
// reached an auditor.
func TestReplaySkipsTransportErrors(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 60, Seed: 3}
	entries := []Entry{
		{Analyst: "alice", Op: OpQuery, SQL: "SELECT sum(salary) WHERE age >= 21", Outcome: "error"},
		{Analyst: "alice", Op: OpQuery, SQL: "SELECT sum(salary) WHERE age >= 30"},
	}
	for i := range entries {
		entries[i].Pos = i
	}
	rp := &Replayer{Stack: stack}
	result, err := rp.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if result.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", result.Skipped)
	}
	if a := result.Analysts[0]; a.Answered != 1 {
		t.Fatalf("surviving entry not replayed: %+v", a)
	}
}

// TestReplayOrderIndependence: verdict order and content are a
// function of the input, not of goroutine scheduling, across repeated
// runs.
func TestReplayOrderIndependence(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 60, Seed: 3}
	var entries []Entry
	for a := 0; a < 4; a++ {
		for _, sql := range testStatements {
			entries = append(entries, Entry{
				Analyst: fmt.Sprintf("analyst-%d", a), Op: OpQuery, SQL: sql, Pos: len(entries),
			})
		}
	}
	var prev []byte
	for i := 0; i < 3; i++ {
		rp := &Replayer{Stack: stack, Workers: 4}
		result, err := rp.Replay(entries)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(result)
		if prev != nil && string(b) != string(prev) {
			t.Fatalf("run %d produced different result bytes", i)
		}
		prev = b
	}
}
