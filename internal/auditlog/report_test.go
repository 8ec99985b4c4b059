package auditlog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"queryaudit/internal/core"
)

// buildTestReport runs the full pipeline (parse → enrich → replay →
// report) over a fixed in-memory workload.
func buildTestReport(t *testing.T, topRisk int) Report {
	t.Helper()
	stack := core.StackConfig{Family: "full", N: 60, Seed: 3}
	var entries []Entry
	for _, analyst := range []string{"alice", "bob"} {
		for _, sql := range testStatements {
			entries = append(entries, Entry{
				Source: "mem", Line: len(entries) + 1, Pos: len(entries),
				Analyst: analyst, Op: OpQuery, SQL: sql,
			})
		}
	}
	entries = append(entries, Entry{
		Source: "mem", Line: len(entries) + 1, Pos: len(entries),
		Analyst: "alice", Op: OpQuery, SQL: "not sql at all", Outcome: "error",
	})

	en := &Enricher{Dict: DefaultDict(), Records: stack.N, Sensitive: "salary"}
	enriched := en.Enrich(entries)
	rp := &Replayer{Stack: stack, Workers: 2}
	replay, err := rp.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Input{{SourceStats: SourceStats{Source: "mem", Format: "ndjson", Lines: len(entries), Entries: len(entries)}, SHA256: "test"}}
	return BuildReport(stack, inputs, enriched, replay, topRisk)
}

// TestBuildReport: the join between enrichment and replay is by stream
// position, counts reconcile, and denial rates come out of the replay
// tallies.
func TestBuildReport(t *testing.T) {
	rep := buildTestReport(t, 5)
	if rep.Queries != 13 || rep.Updates != 0 {
		t.Fatalf("queries=%d updates=%d", rep.Queries, rep.Updates)
	}
	if rep.Unscored != 1 {
		t.Fatalf("unscored = %d, want 1 (the unparseable line)", rep.Unscored)
	}
	if rep.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the transport-error line)", rep.Skipped)
	}
	if len(rep.Analysts) != 2 {
		t.Fatalf("analysts = %d", len(rep.Analysts))
	}
	for _, a := range rep.Analysts {
		if a.Queries != a.Answered+a.Denied+a.Errored {
			t.Fatalf("analyst %s: counts do not reconcile: %+v", a.Analyst, a)
		}
		if decided := a.Answered + a.Denied; decided > 0 {
			want := float64(a.Denied) / float64(decided)
			if a.DenialRate != want {
				t.Fatalf("analyst %s: denial rate %v, want %v", a.Analyst, a.DenialRate, want)
			}
		}
		if a.MaxRisk <= 0 {
			t.Fatalf("analyst %s: max risk not propagated", a.Analyst)
		}
		if len(a.Proximity) == 0 {
			t.Fatalf("analyst %s: proximity missing", a.Analyst)
		}
	}
	if rep.Analysts[0].Analyst >= rep.Analysts[1].Analyst {
		t.Fatal("analysts not sorted")
	}
}

// TestTopRiskOrdering: the table is capped, sorted by score descending
// with position as the tiebreak, and joined with offline verdicts.
func TestTopRiskOrdering(t *testing.T) {
	rep := buildTestReport(t, 5)
	if len(rep.TopRisk) != 5 {
		t.Fatalf("top-risk len = %d, want 5", len(rep.TopRisk))
	}
	for i := 1; i < len(rep.TopRisk); i++ {
		a, b := rep.TopRisk[i-1], rep.TopRisk[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Pos > b.Pos) {
			t.Fatalf("top-risk misordered at %d: %+v then %+v", i, a, b)
		}
	}
	for _, re := range rep.TopRisk {
		if re.Offline == "" {
			t.Fatalf("top-risk row missing offline verdict: %+v", re)
		}
	}
	// Default cap applies when topRisk <= 0.
	if rep := buildTestReport(t, 0); len(rep.TopRisk) != 10 {
		t.Fatalf("default cap = %d, want 10", len(rep.TopRisk))
	}
}

// TestReportBytesDeterministic: building and encoding the report twice
// yields byte-identical artifacts — the acceptance criterion for the
// whole pipeline.
func TestReportBytesDeterministic(t *testing.T) {
	var prev []byte
	for i := 0; i < 2; i++ {
		rep := buildTestReport(t, 5)
		var buf bytes.Buffer
		if err := EncodeReport(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, buf.Bytes()) {
			t.Fatal("report bytes differ across identical runs")
		}
		prev = buf.Bytes()
	}
	if !bytes.HasSuffix(prev, []byte("\n")) {
		t.Fatal("report must end with a newline")
	}
}

// TestWriteReport: the artifact lands atomically and matches the
// encoder's bytes.
func TestWriteReport(t *testing.T) {
	rep := buildTestReport(t, 3)
	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("written report differs from encoded bytes")
	}
}
