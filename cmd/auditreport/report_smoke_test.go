package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"queryaudit/internal/auditlog"
	"queryaudit/internal/persist"
	"queryaudit/internal/session"
)

// TestReportSmoke is the end-to-end retrospective-auditing drill
// (`make report-smoke`): start a real auditserver, drive a workload
// through the loadgen binary with -emit-audit-log, export the session
// journals over /v1/journal, then replay both log shapes through the
// auditreport binary configured with the same stack flags. The paper's
// simulatability property says the offline verdicts must reproduce the
// live ones bit-for-bit, so -verify must pass with zero mismatches —
// for the full-information stack and the probabilistic one — and
// running the pipeline twice must yield byte-identical reports. The
// same holds for a session journal recorded by the auditdb REPL (see
// checkAuditdbJournal).
func TestReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping e2e binary test in -short mode")
	}
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "auditserver")
	loadgenBin := filepath.Join(dir, "loadgen")
	reportBin := filepath.Join(dir, "auditreport")
	dbBin := filepath.Join(dir, "auditdb")
	for _, b := range []struct{ bin, pkg string }{
		{serverBin, "queryaudit/cmd/auditserver"},
		{loadgenBin, "queryaudit/cmd/loadgen"},
		{reportBin, "queryaudit/cmd/auditreport"},
		{dbBin, "queryaudit/cmd/auditdb"},
	} {
		build := exec.Command("go", "build", "-o", b.bin, b.pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			t.Fatalf("build %s: %v", b.pkg, err)
		}
	}

	cases := []struct {
		family   string
		requests int
		stack    []string // shared auditserver/auditreport stack flags
		// dbScript is piped into auditdb; dbQueries counts its queries.
		dbScript  []string
		dbQueries int
	}{
		{"full", 80, []string{"-auditors", "full", "-n", "60", "-seed", "3"}, []string{
			"SELECT sum(salary) WHERE age BETWEEN 30 AND 50",
			"SELECT max(salary) WHERE dept = 'eng'",
			"SELECT min(salary) WHERE dept = 'eng'",
			".update 5 100000",
			"SELECT sum(salary) WHERE age BETWEEN 30 AND 55",
		}, 4},
		// Small prob stack: live Monte Carlo decisions are the cost here.
		{"prob", 24, []string{
			"-auditors", "prob", "-n", "24", "-seed", "3",
			"-prob-lambda", "0.45", "-prob-gamma", "4", "-prob-delta", "0.2",
			"-prob-t", "12", "-prob-seed", "7",
		}, []string{
			"SELECT max(salary)",
			"SELECT min(salary)",
			"SELECT sum(salary) WHERE age BETWEEN 30 AND 50",
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			sub := filepath.Join(dir, tc.family)
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			addr := startServer(t, serverBin, tc.stack)

			// One worker so the emission order of the audit log equals the
			// server's decision order per analyst — the precondition for
			// sequential replay.
			auditLog := filepath.Join(sub, "audit.ndjson")
			lg := exec.Command(loadgenBin,
				"-target", "http://"+addr,
				"-requests", fmt.Sprint(tc.requests),
				"-concurrency", "1",
				"-analysts", "2",
				"-mix", "sum=2,max=1,min=1",
				"-statements", "8",
				"-out", filepath.Join(sub, "loadgen.json"),
				"-emit-audit-log", auditLog,
			)
			lg.Stdout, lg.Stderr = os.Stderr, os.Stderr
			if err := lg.Run(); err != nil {
				t.Fatalf("loadgen run: %v", err)
			}

			// Export both analysts' journals — the server-side record of
			// the same history.
			journal := filepath.Join(sub, "journal.json")
			fetchJournals(t, addr, []string{"analyst-0", "analyst-1"}, journal)

			// Replay each log shape through the same stack; -verify makes
			// any live/offline divergence fatal.
			report1 := runReport(t, reportBin, tc.stack, filepath.Join(sub, "report1.json"), auditLog)
			report2 := runReport(t, reportBin, tc.stack, filepath.Join(sub, "report2.json"), auditLog)
			if !bytes.Equal(report1, report2) {
				t.Fatal("two pipeline runs over the same audit log differ")
			}
			journalReport := runReport(t, reportBin, tc.stack, filepath.Join(sub, "journal-report.json"), journal)

			for name, raw := range map[string][]byte{"audit-log": report1, "journal": journalReport} {
				var rep auditlog.Report
				if err := json.Unmarshal(raw, &rep); err != nil {
					t.Fatalf("%s report not valid JSON: %v", name, err)
				}
				if rep.Mismatches != 0 {
					t.Fatalf("%s replay diverged: %d mismatches", name, rep.Mismatches)
				}
				if rep.Compared == 0 || rep.Queries == 0 {
					t.Fatalf("%s report compared nothing: %+v", name, rep)
				}
				if len(rep.Analysts) != 2 {
					t.Fatalf("%s report has %d analysts, want 2", name, len(rep.Analysts))
				}
			}

			// auditdb takes no -prob-* flags: its prob parameters are
			// auditreport's defaults, so only -auditors/-n/-seed carry over.
			checkAuditdbJournal(t, dbBin, reportBin, sub, tc.stack[:6], tc.dbScript, tc.dbQueries)
		})
	}
}

// tallies matches the counters of auditdb's .stats line.
var tallies = regexp.MustCompile(`answered=\d+ denied=\d+ records=\d+ modifications=\d+`)

// checkAuditdbJournal records script through the auditdb REPL into a
// -session-snapshot file and checks that file four ways: auditreport
// -verify with the same stack flags compares every query with zero
// mismatches; a second auditdb run on the file restores the session's
// .stats counters, updates included; a copy with one byte of an event
// changed fails the journal's digest check, with or without -verify; and
// a copy with one decision flipped and the digest stripped gets past
// that check but fails replay with mismatches.
func checkAuditdbJournal(t *testing.T, dbBin, reportBin, dir string, stack, script []string, queries int) {
	t.Helper()
	journal := filepath.Join(dir, "auditdb-journal.json")
	first := runAuditdb(t, dbBin, stack, journal, append(script, ".stats"))
	raw := runReport(t, reportBin, stack, filepath.Join(dir, "auditdb-report.json"), journal)
	var rep auditlog.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("auditdb journal report not valid JSON: %v", err)
	}
	if rep.Compared != queries || rep.Mismatches != 0 {
		t.Fatalf("auditdb journal replay: compared=%d mismatches=%d, want %d and 0",
			rep.Compared, rep.Mismatches, queries)
	}

	want := tallies.FindString(first)
	again := runAuditdb(t, dbBin, stack, journal, []string{".stats"})
	if want == "" || tallies.FindString(again) != want {
		t.Fatalf("restart did not restore the counters %q:\n%s", want, again)
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"answer":`)) + len(`"answer":`)
	if i < len(`"answer":`) || data[i] < '0' || data[i] > '9' {
		t.Fatalf("no answered event to tamper with in %s", data)
	}
	data[i] = '0' + (data[i]-'0'+1)%10
	if _, ok := verify(t, reportBin, stack, dir, "auditdb-tampered", data); ok {
		t.Fatal("auditreport -verify accepted a journal with a changed answer")
	}
	// Without -verify a malformed line is not fatal, so this passes only
	// if format detection still takes the damaged file for a journal.
	args := append(append([]string{}, stack...), "-quiet", "-o", "-", filepath.Join(dir, "auditdb-tampered.json"))
	if err := exec.Command(reportBin, args...).Run(); err == nil {
		t.Fatal("auditreport accepted a journal with a changed answer without -verify")
	}

	logs, err := loadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for j, ev := range logs[0].Events {
		if ev.Outcome == "answered" {
			logs[0].Events[j].Outcome, logs[0].Events[j].Answer = "denied", 0
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no answered event to flip")
	}
	logs[0].Seq, logs[0].Digest = 0, ""
	var buf bytes.Buffer
	if err := persist.SaveSessionState(&buf, logs, 0); err != nil {
		t.Fatal(err)
	}
	if rep, ok := verify(t, reportBin, stack, dir, "auditdb-flipped", buf.Bytes()); ok || rep.Mismatches == 0 {
		t.Fatalf("auditreport -verify did not report a flipped decision: ok=%v mismatches=%d", ok, rep.Mismatches)
	}
}

// loadJournal reads the session journals saved at path.
func loadJournal(path string) ([]session.LogSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return persist.LoadSessions(f)
}

// verify writes data to name.json in dir and runs auditreport -verify on
// it with the stack flags. It reports whether verification passed, and
// the report auditreport wrote, if any.
func verify(t *testing.T, reportBin string, stack []string, dir, name string, data []byte) (auditlog.Report, bool) {
	t.Helper()
	input := filepath.Join(dir, name+".json")
	if err := os.WriteFile(input, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, name+"-report.json")
	args := append(append([]string{}, stack...), "-verify", "-quiet", "-o", out, input)
	err := exec.Command(reportBin, args...).Run()
	var rep auditlog.Report
	if raw, rerr := os.ReadFile(out); rerr == nil {
		if jerr := json.Unmarshal(raw, &rep); jerr != nil {
			t.Fatalf("%s report not valid JSON: %v", name, jerr)
		}
	}
	return rep, err == nil
}

// runAuditdb pipes script into auditdb with -session-snapshot journal
// and returns its stdout.
func runAuditdb(t *testing.T, bin string, stack []string, journal string, script []string) string {
	t.Helper()
	args := append(append([]string{}, stack...), "-session-snapshot", journal)
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(strings.Join(script, "\n") + "\n")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("auditdb %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// startServer launches auditserver on an ephemeral port with the given
// stack flags and returns its address.
func startServer(t *testing.T, bin string, stack []string) string {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, stack...)
	srv := exec.Command(bin, args...)
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Process.Kill(); srv.Wait() })
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr
	case <-time.After(20 * time.Second):
		t.Fatal("auditserver never reported its listen address")
		return ""
	}
}

// fetchJournals exports each analyst's journal over /v1/journal and
// writes them as one JSON array — the multi-snapshot shape the parser
// accepts.
func fetchJournals(t *testing.T, addr string, analysts []string, path string) {
	t.Helper()
	var snaps []json.RawMessage
	for _, a := range analysts {
		resp, err := http.Get("http://" + addr + "/v1/journal?analyst=" + a)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/journal?analyst=%s: %d %s", a, resp.StatusCode, body)
		}
		snaps = append(snaps, body)
	}
	data, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runReport invokes the auditreport binary in -verify mode and returns
// the report bytes.
func runReport(t *testing.T, bin string, stack []string, out, input string) []byte {
	t.Helper()
	args := append([]string{}, stack...)
	args = append(args, "-verify", "-quiet", "-o", out, input)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("auditreport %s: %v", input, err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
