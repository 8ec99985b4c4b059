package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runScript runs auditdb with args on a stdin script and returns its
// exit code, stdout and stderr.
func runScript(t *testing.T, script string, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, strings.NewReader(script), &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestProbAnswersFollowUpMax: the prob stack guards a table scaled to
// the [0,1] range its auditors protect, so a max answer does not push
// every later max query outside that range. A max auditor left at its
// default [0,1] range over raw salaries denied every max query after the
// first one on this script.
func TestProbAnswersFollowUpMax(t *testing.T) {
	script := strings.Join([]string{
		"SELECT max(salary) WHERE age BETWEEN 30 AND 40",
		"SELECT max(salary) WHERE age BETWEEN 30 AND 35",
		"SELECT max(salary) WHERE age BETWEEN 36 AND 40",
		"SELECT max(salary) WHERE dept = 'eng'",
		".stats",
	}, "\n")
	code, out, errOut := runScript(t, script, "-auditors", "prob")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if strings.Contains(out, "DENIED") || !strings.Contains(out, "answered=4 denied=0") {
		t.Fatalf("follow-up max queries were not all answered:\n%s", out)
	}
}

// TestRestartKeepsUpdates: a session restarted from its journal file
// answers like the uninterrupted session after an update. This is the
// paper's update example: sum{a,b,c} is answered, x_a is updated, and
// sum{a,b} becomes answerable. A restart that rebuilt the table without
// the update would answer sum{a,b} from the old x_a, giving away x_c.
func TestRestartKeepsUpdates(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "table.csv")
	if err := os.WriteFile(csv, []byte("age,dept,salary\n31,eng,100\n42,eng,200\n35,ops,300\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := "SELECT sum(salary)\n.update 0 1000\n"
	after := "SELECT sum(salary) WHERE dept = 'eng'\n.stats\n"
	want := []string{"auditdb> 1200.00\n", "answered=2 denied=0 records=3 modifications=1"}

	_, whole, _ := runScript(t, before+after, "-csv", csv)
	journal := filepath.Join(dir, "session.json")
	if code, _, errOut := runScript(t, before, "-csv", csv, "-session-snapshot", journal); code != 0 {
		t.Fatalf("first run: exit %d: %s", code, errOut)
	}
	code, restarted, errOut := runScript(t, after, "-csv", csv, "-session-snapshot", journal)
	if code != 0 {
		t.Fatalf("restart: exit %d: %s", code, errOut)
	}
	for _, w := range want {
		if !strings.Contains(whole, w) || !strings.Contains(restarted, w) {
			t.Fatalf("want %q in both runs\nuninterrupted:\n%s\nrestarted:\n%s", w, whole, restarted)
		}
	}
}

// TestCSV: -csv loads under the full auditors, which need distinct
// sensitive values; the prob auditors refuse a CSV table at startup,
// since it is not scaled to [0,1].
func TestCSV(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	distinct := write("distinct.csv", "age,dept,salary\n31,eng,100\n42,eng,200\n35,ops,300\n")
	dup := write("dup.csv", "age,dept,salary\n31,eng,100\n42,eng,100\n35,ops,300\n")

	code, out, errOut := runScript(t, "SELECT sum(salary) WHERE dept = 'eng'\n", "-csv", distinct)
	if code != 0 || !strings.Contains(out, "3 records") || !strings.Contains(out, "300.00") {
		t.Fatalf("full -csv: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if code, _, errOut := runScript(t, "", "-csv", dup); code == 0 {
		t.Fatalf("full -csv accepted duplicate salaries: %s", errOut)
	}
	code, out, errOut = runScript(t, "SELECT sum(salary)\n", "-auditors", "prob", "-csv", distinct)
	if code == 0 || strings.Contains(out, "auditdb>") || !strings.Contains(errOut, "-csv requires -auditors full") {
		t.Fatalf("prob -csv: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestRejectsNonJournal: an existing -session-snapshot file that is not
// a session journal, such as a JSONL trace, stops auditdb at startup
// with an error naming the file.
func TestRejectsNonJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.jsonl")
	trace := `{"type":"query","kind":"sum","indices":[0,1,2],"answer":3}` + "\n"
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runScript(t, "SELECT sum(salary)\n", "-session-snapshot", path)
	if code == 0 || strings.Contains(out, "auditdb>") || !strings.Contains(errOut, path) {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != trace {
		t.Fatalf("the rejected file was modified: %q (%v)", got, err)
	}
}
