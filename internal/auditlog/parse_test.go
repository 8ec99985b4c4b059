package auditlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"queryaudit/internal/core"
	"queryaudit/internal/persist"
	"queryaudit/internal/session"
)

// TestParsePGAuditFixtures: the golden CSV fixtures parse with exact
// entry/malformed/skipped accounting — per-line recovery means a torn
// quote or truncated record never takes the rest of the file with it.
func TestParsePGAuditFixtures(t *testing.T) {
	cases := []struct {
		file                        string
		entries, malformed, skipped int
	}{
		{"pgaudit_valid.csv", 4, 0, 2},     // comment + WRITE row skipped
		{"pgaudit_malformed.csv", 2, 3, 0}, // free text, short record, torn quote
		{"pgaudit_truncated.csv", 1, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			entries, st, err := ParseFile(filepath.Join("testdata", tc.file), FormatPGAuditCSV)
			if err != nil {
				t.Fatal(err)
			}
			if st.Entries != tc.entries || st.Malformed != tc.malformed || st.Skipped != tc.skipped {
				t.Fatalf("got entries=%d malformed=%d skipped=%d, want %d/%d/%d",
					st.Entries, st.Malformed, st.Skipped, tc.entries, tc.malformed, tc.skipped)
			}
			if len(entries) != tc.entries {
				t.Fatalf("len(entries)=%d, want %d", len(entries), tc.entries)
			}
			for _, e := range entries {
				if err := e.Validate(); err != nil {
					t.Fatalf("parsed entry fails validation: %v", err)
				}
				if e.SQL == "" || e.Analyst == "" || e.Line == 0 {
					t.Fatalf("entry missing fields: %+v", e)
				}
			}
		})
	}
}

// TestParsePGAuditFields: the column mapping is exact.
func TestParsePGAuditFields(t *testing.T) {
	entries, _, err := ParseFile(filepath.Join("testdata", "pgaudit_valid.csv"), FormatPGAuditCSV)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[0]
	if e.Analyst != "alice" || e.Time != "2026-08-01T10:00:00Z" || e.Op != OpQuery {
		t.Fatalf("unexpected first entry: %+v", e)
	}
	if e.SQL != "SELECT sum(salary) WHERE age BETWEEN 30 AND 40" {
		t.Fatalf("unexpected SQL: %q", e.SQL)
	}
	if e.Line != 2 {
		t.Fatalf("line = %d, want 2 (comment is line 1)", e.Line)
	}
	// Every fixture statement must be parseable by the SQL front-end, or
	// the fixture is not representative of a real deployment log.
	for _, e := range entries {
		if _, err := core.Parse(e.SQL); err != nil {
			t.Fatalf("fixture statement %q does not parse: %v", e.SQL, err)
		}
	}
}

// TestParseNDJSONFixtures: the loadgen emission schema round-trips, and
// malformed lines are counted without aborting the stream.
func TestParseNDJSONFixtures(t *testing.T) {
	entries, st, err := ParseFile(filepath.Join("testdata", "audit_valid.ndjson"), FormatNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Malformed != 0 {
		t.Fatalf("valid fixture: %+v", st)
	}
	if !entries[0].HasAnswer || entries[0].Answer != 123.5 || entries[0].Outcome != "answered" {
		t.Fatalf("answer not carried: %+v", entries[0])
	}
	if entries[1].HasAnswer || entries[1].Outcome != "denied" {
		t.Fatalf("denied entry: %+v", entries[1])
	}

	entries, st, err = ParseFile(filepath.Join("testdata", "audit_malformed.ndjson"), FormatNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Malformed != 3 || st.Skipped != 1 {
		t.Fatalf("malformed fixture: %+v", st)
	}
	if len(entries) != 2 || entries[1].Line != 6 {
		t.Fatalf("recovery lost the trailing valid line: %+v", entries)
	}
}

// TestAutoDetect: format sniffing picks the right parser for each
// shape without being told.
func TestAutoDetect(t *testing.T) {
	cases := []struct {
		file string
		want Format
	}{
		{"pgaudit_valid.csv", FormatPGAuditCSV},
		{"audit_valid.ndjson", FormatNDJSON},
	}
	for _, tc := range cases {
		_, st, err := ParseFile(filepath.Join("testdata", tc.file), FormatAuto)
		if err != nil {
			t.Fatal(err)
		}
		if st.Format != string(tc.want) {
			t.Fatalf("%s detected as %s, want %s", tc.file, st.Format, tc.want)
		}
	}
}

// exportJournal drives a live stack and returns one analyst's exported
// snapshot — the shared setup for the journal parsing and replay tests.
func exportJournal(t *testing.T, stack core.StackConfig, analyst string, sqls []string) (session.LogSnapshot, []core.Response) {
	t.Helper()
	mgr := newTestManager(t, stack)
	var resps []core.Response
	for _, sql := range sqls {
		q, err := core.ResolveSQL(mgr.Resolver(), "salary", sql)
		if err != nil {
			t.Fatalf("resolve %q: %v", sql, err)
		}
		resp, err := mgr.Ask(analyst, q)
		if err != nil {
			t.Fatalf("ask %q: %v", sql, err)
		}
		resps = append(resps, resp)
	}
	snap, ok := mgr.Export(analyst)
	if !ok {
		t.Fatalf("no session for %q", analyst)
	}
	return snap, resps
}

// TestParseJournal: an exported session journal normalizes into entries
// whose outcomes mirror the live transcript, in every accepted wrapper.
func TestParseJournal(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 40, Seed: 1}
	snap, _ := exportJournal(t, stack, "alice", []string{
		"SELECT sum(salary) WHERE age >= 30",
		"SELECT max(salary) WHERE dept = 'eng'",
		"SELECT avg(salary) WHERE age >= 21", // journaled as its inner sum
	})

	bare, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	array, err := json.Marshal([]session.LogSnapshot{snap})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		data []byte
	}{{"bare", bare}, {"array", array}}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			entries, st, err := ParseBytes(sh.data, sh.name, FormatAuto)
			if err != nil {
				t.Fatal(err)
			}
			if st.Format != string(FormatJournal) {
				t.Fatalf("detected as %s, want journal", st.Format)
			}
			if len(entries) != 3 {
				t.Fatalf("got %d entries, want 3", len(entries))
			}
			for _, e := range entries {
				if e.Analyst != "alice" || e.Op != OpQuery || len(e.Indices) == 0 {
					t.Fatalf("journal entry malformed: %+v", e)
				}
			}
			if entries[2].Kind != "sum" {
				t.Fatalf("avg must be journaled as sum, got %q", entries[2].Kind)
			}
		})
	}
}

// TestParseJournalRejectsTamper: a bit-flipped journal fails its digest
// chain and is rejected as a unit — no partial ingest of corrupt
// history — with an error naming the analyst. Auto-detection must reject
// it too, not re-read it as another format.
func TestParseJournalRejectsTamper(t *testing.T) {
	stack := core.StackConfig{Family: "full", N: 40, Seed: 1}
	clean, _ := exportJournal(t, stack, "alice", []string{"SELECT sum(salary) WHERE age >= 30"})
	damages := []struct {
		name   string
		damage func(*session.LogSnapshot)
	}{
		{"outcome", func(s *session.LogSnapshot) { s.Events[0].Outcome = "denied" }},
		{"digest", func(s *session.LogSnapshot) {
			d := []byte(s.Digest)
			d[0] ^= 1 // a different hex digit
			s.Digest = string(d)
		}},
		{"op", func(s *session.LogSnapshot) { s.Events[0].Op = "drop" }},
	}
	for _, dm := range damages {
		snap := clean
		snap.Events = append([]session.EventSnapshot(nil), clean.Events...)
		dm.damage(&snap)
		bare, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var envelope bytes.Buffer
		if err := persist.SaveSessionState(&envelope, []session.LogSnapshot{snap}, 0); err != nil {
			t.Fatal(err)
		}
		for _, sh := range []struct {
			name string
			data []byte
		}{{"bare", bare}, {"envelope", envelope.Bytes()}} {
			for _, format := range []Format{FormatJournal, FormatAuto} {
				_, st, err := ParseBytes(sh.data, "tampered", format)
				if err == nil || st.Format != string(FormatJournal) {
					t.Fatalf("%s journal with a damaged %s under %s must be rejected as a journal (parsed as %s, err %v)", sh.name, dm.name, format, st.Format, err)
				}
				if !strings.Contains(err.Error(), `"alice"`) {
					t.Errorf("%s journal with a damaged %s under %s: error does not name the analyst: %v", sh.name, dm.name, format, err)
				}
			}
		}
	}
}

// TestParseCommittedSessionsFile: the committed session file
// internal/persist/testdata/sessions_v1.json parses to pinned entries
// (the SHA-256 of their JSON), under -format journal and auto alike.
func TestParseCommittedSessionsFile(t *testing.T) {
	const wantSHA256 = "f8f779cf82045dd8b6588fb62ff65b7b1e621b11859aa760b6fa0b95ae96a2c7"
	path := filepath.Join("..", "persist", "testdata", "sessions_v1.json")
	for _, format := range []Format{FormatJournal, FormatAuto} {
		entries, st, err := ParseFile(path, format)
		if err != nil {
			t.Fatal(err)
		}
		want := SourceStats{Source: path, Format: string(FormatJournal), Lines: 23, Entries: 23}
		if st != want {
			t.Fatalf("%s: stats %+v, want %+v", format, st, want)
		}
		raw, err := json.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != wantSHA256 {
			t.Fatalf("%s: entries digest %s, want %s", format, got, wantSHA256)
		}
	}
}

// FuzzParseEntry: the per-line parsers never panic, never return
// invalid entries, and are deterministic, whatever bytes arrive.
func FuzzParseEntry(f *testing.F) {
	f.Add(`2026-08-01T10:00:00Z,alice,salaries,1,READ,SELECT,"SELECT sum(salary) WHERE age >= 30"`)
	f.Add(`{"ts":"t","analyst":"a","sql":"SELECT sum(salary) WHERE age >= 30","kind":"sum","outcome":"answered","answer":1}`)
	f.Add(`{"analyst":"a","op":"update","index":3}`)
	f.Add("this line is not a csv record")
	f.Add(`{not json`)
	f.Add("a,b,c")
	f.Add("")
	f.Add(`{"analyst":"a","events":[]}`)
	f.Fuzz(func(t *testing.T, line string) {
		for _, format := range []Format{FormatPGAuditCSV, FormatNDJSON, FormatAuto} {
			e1, s1, err1 := ParseBytes([]byte(line), "fuzz", format)
			e2, s2, err2 := ParseBytes([]byte(line), "fuzz", format)
			if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(e1, e2) || s1 != s2 {
				t.Fatalf("format %s is nondeterministic on %q", format, line)
			}
			for _, e := range e1 {
				if err := e.Validate(); err != nil {
					t.Fatalf("format %s emitted invalid entry for %q: %v", format, line, err)
				}
				if strings.TrimSpace(e.Analyst) == "" {
					t.Fatalf("format %s emitted entry without analyst for %q", format, line)
				}
			}
		}
	})
}
