package auditlog

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"queryaudit/internal/core"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestScoreDefaultDict: the scoring formula is exactly
// attr-weight-sum × kind-factor × breadth-factor on the built-in
// dictionary.
func TestScoreDefaultDict(t *testing.T) {
	en := &Enricher{Dict: DefaultDict(), Records: 64, Sensitive: "salary"}

	// salary (1.0) + age (0.6) = 1.6; max factor 1.3; breadth unknown → 1.
	r, err := en.Score(Entry{Analyst: "a", Op: OpQuery, SQL: "SELECT max(salary) WHERE age >= 30"})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r.AttrScore, 1.6) || !almost(r.KindFactor, 1.3) || !almost(r.BreadthFactor, 1) {
		t.Fatalf("factors: %+v", r)
	}
	if !almost(r.Score, 1.6*1.3) {
		t.Fatalf("score = %v, want %v", r.Score, 1.6*1.3)
	}
	if strings.Join(r.Attrs, ",") != "age,salary" {
		t.Fatalf("attrs = %v (want sorted, deduped)", r.Attrs)
	}

	// Journal entry: indices give breadth 4 of 64 → factor 1+log2(16)=5.
	r, err = en.Score(Entry{Analyst: "a", Op: OpQuery, Kind: "sum", Indices: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r.BreadthFactor, 5) {
		t.Fatalf("breadth factor = %v, want 5", r.BreadthFactor)
	}
	if !almost(r.Score, 1.0*1.0*5) { // salary only, sum factor 1
		t.Fatalf("journal score = %v, want 5", r.Score)
	}

	// Duplicate attribute counted once: salary target + salary predicate.
	r, err = en.Score(Entry{Analyst: "a", Op: OpQuery, SQL: "SELECT sum(salary) WHERE age >= 20 AND age <= 40"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Attrs) != 2 || !almost(r.AttrScore, 1.6) {
		t.Fatalf("dedup failed: %+v", r)
	}
}

// TestScoreBreadthFromSQL: with a resolver, an SQL entry's breadth is
// the size of the set a dataset scan selects, also for a target other
// than the sensitive attribute, and 0 for an empty selection; a
// repeated statement scores the same from the statement memo.
func TestScoreBreadthFromSQL(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 60, Seed: 3}
	ds := stack.NewDataset()
	en := &Enricher{Dict: DefaultDict(), Records: stack.N, Sensitive: "salary", SQL: newSQLResolver(stack)}
	for _, sql := range []string{
		"SELECT sum(salary) WHERE age >= 30",
		"SELECT max(bonus) WHERE dept = 'eng'",
		"SELECT sum(salary) WHERE age >= 500",
		"SELECT sum(salary) WHERE age >= 30",
	} {
		stmt, err := core.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := len(ds.Select(stmt.Predicate()))
		r, err := en.Score(Entry{Analyst: "a", Op: OpQuery, SQL: sql})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if r.Breadth != want {
			t.Fatalf("%s: breadth %d, want %d", sql, r.Breadth, want)
		}
		if empty := strings.Contains(sql, "500"); empty != (want == 0) {
			t.Fatalf("%s: scan selects %d records", sql, want)
		}
	}
}

// TestEnrichErrors: unparseable SQL is carried as an Error with zero
// risk, and updates pass through unscored — the stream never drops an
// entry.
func TestEnrichErrors(t *testing.T) {
	en := &Enricher{Dict: DefaultDict(), Records: 64, Sensitive: "salary"}
	out := en.Enrich([]Entry{
		{Analyst: "a", Op: OpQuery, SQL: "DROP TABLE salaries"},
		{Analyst: "a", Op: OpUpdate, Index: 3},
		{Analyst: "a", Op: OpQuery, SQL: "SELECT sum(salary) WHERE age >= 30"},
	})
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].Error == "" || out[0].Risk.Score != 0 {
		t.Fatalf("bad SQL not flagged: %+v", out[0])
	}
	if out[1].Error != "" || out[1].Risk.Score != 0 {
		t.Fatalf("update scored: %+v", out[1])
	}
	if out[2].Error != "" || out[2].Risk.Score <= 0 {
		t.Fatalf("valid query not scored: %+v", out[2])
	}
}

// TestLoadDict: a valid dictionary round-trips; undefined classes,
// unknown fields, and empty class maps are rejected with the file name
// in the error.
func TestLoadDict(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	good := write("good.json", `{
		"classes": {"hot": 2, "cold": 0.5},
		"attributes": {"salary": "hot", "dept": "cold"},
		"kinds": {"sum": 1.5},
		"default_class": "cold"
	}`)
	d, err := LoadDict(good)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(d.attrWeight("salary"), 2) || !almost(d.attrWeight("unknown"), 0.5) {
		t.Fatalf("weights: %+v", d)
	}
	if !almost(d.kindFactor("sum"), 1.5) || !almost(d.kindFactor("max"), 1) {
		t.Fatalf("kind factors: %+v", d)
	}

	bad := []struct{ name, content, wantErr string }{
		{"noclasses.json", `{"attributes":{"salary":"hot"}}`, "no classes"},
		{"undef.json", `{"classes":{"hot":1},"attributes":{"salary":"warm"}}`, "undefined class"},
		{"defundef.json", `{"classes":{"hot":1},"default_class":"warm"}`, "undefined"},
		{"unknownfield.json", `{"classes":{"hot":1},"surprise":true}`, "unknown field"},
		{"notjson.json", `{`, "unexpected"},
	}
	for _, tc := range bad {
		path := write(tc.name, tc.content)
		if _, err := LoadDict(path); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	if _, err := LoadDict(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestWriteEnrichedDeterministic: the enriched ndjson is byte-identical
// across runs — same inputs, same artifact.
func TestWriteEnrichedDeterministic(t *testing.T) {
	en := &Enricher{Dict: DefaultDict(), Records: 64, Sensitive: "salary"}
	entries := []Entry{
		{Source: "s", Line: 1, Analyst: "a", Op: OpQuery, SQL: "SELECT sum(salary) WHERE age >= 30"},
		{Source: "s", Line: 2, Analyst: "b", Op: OpQuery, Kind: "max", Indices: []int{0, 1}},
		{Source: "s", Line: 3, Analyst: "a", Op: OpUpdate, Index: 9},
	}
	var prev []byte
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := WriteEnriched(&buf, en.Enrich(entries)); err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, buf.Bytes()) {
			t.Fatal("enriched output differs across runs")
		}
		prev = buf.Bytes()
	}
	if lines := bytes.Count(prev, []byte("\n")); lines != 3 {
		t.Fatalf("expected 3 ndjson lines, got %d", lines)
	}
}
