package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildServer compiles the auditserver binary into a test temp dir.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping e2e binary test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "auditserver")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}
	return bin
}

// terminate sends SIGTERM and returns the process's log once it has
// drained and exited 0.
func (p *proc) terminate(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain stderr to EOF before calling Wait: Wait closes the pipe as
	// soon as the child exits, and calling it concurrently with the
	// scanner can discard the final (snapshot/stats) log lines.
	var logs string
	select {
	case logs = <-p.logs:
	case <-time.After(15 * time.Second):
		t.Fatal("process did not exit after SIGTERM")
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("process exited with %v\nlog:\n%s", err, logs)
	}
	return logs
}

// TestGracefulShutdownWritesSnapshot is an end-to-end check of the
// serving and restart path: run the binary with -session-snapshot,
// answer a query, send SIGTERM, and verify the process drains, writes
// the session logs and exits 0. A second process on the same file must
// replay them to the same journal position.
func TestGracefulShutdownWritesSnapshot(t *testing.T) {
	bin := buildServer(t)
	snap := filepath.Join(t.TempDir(), "sessions.json")
	p := startServer(t, bin, "-session-snapshot", snap)

	// Answer one query so the snapshot has a non-trivial journal.
	body := bytes.NewReader([]byte(`{"kind":"sum","indices":[0,1,2,3,4]}`))
	resp, err := http.Post(p.url("/v1/queryset"), "application/json", body)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out["denied"] == true {
		t.Fatalf("fresh sum denied: %v", out)
	}
	// healthz answers too.
	hr, err := http.Get(p.url("/healthz"))
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hr)
	}
	hr.Body.Close()
	before := transcript(t, p.url(""))["default"]
	if !strings.HasPrefix(before, "1:") {
		t.Fatalf("default session before restart at %q, want seq 1", before)
	}

	logs := p.terminate(t)
	if !strings.Contains(logs, "session logs saved") {
		t.Fatalf("no session-save log line:\n%s", logs)
	}
	if !strings.Contains(logs, "final stats: answered=1") {
		t.Fatalf("final stats missing or wrong:\n%s", logs)
	}

	restarted := startServer(t, bin, "-session-snapshot", snap)
	if after := transcript(t, restarted.url(""))["default"]; after != before {
		t.Fatalf("default session after restart at %q, want %q", after, before)
	}
	if logs := restarted.terminate(t); !strings.Contains(logs, "restored 1 session logs") {
		t.Fatalf("restart did not restore the journal:\n%s", logs)
	}
}

// TestSnapshotFlagRemoved: the retired -snapshot flag stops the process
// at startup with a pointer to -session-snapshot, before it serves, and
// leaves an existing file untouched.
func TestSnapshotFlagRemoved(t *testing.T) {
	bin := buildServer(t)
	snap := filepath.Join(t.TempDir(), "state.json")
	const old = `{"version":1,"kind":"sum-full","payload":{}}` + "\n"
	if err := os.WriteFile(snap, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-n", "30", "-addr", "127.0.0.1:0", "-snapshot", snap).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-snapshot: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "-session-snapshot") || strings.Contains(string(out), "listening on") {
		t.Fatalf("-snapshot output does not point at -session-snapshot before serving:\n%s", out)
	}
	if data, err := os.ReadFile(snap); err != nil || string(data) != old {
		t.Fatalf("-snapshot touched its file: %q, %v", data, err)
	}
}

// TestSessionShardsRejectsZero: a shard count below 1 stops the process
// at startup naming the flag, instead of serving without the
// session_shard_waiters_<i> gauges.
func TestSessionShardsRejectsZero(t *testing.T) {
	bin := buildServer(t)
	for _, v := range []string{"0", "-1"} {
		// A server that accepts the value would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-n", "30", "-addr", "127.0.0.1:0", "-session-shards", v).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("-session-shards %s: err %v, want a non-zero exit\n%s", v, err, out)
		}
		if !strings.Contains(string(out), "-session-shards") || strings.Contains(string(out), "listening on") {
			t.Fatalf("-session-shards %s output does not name the flag before serving:\n%s", v, out)
		}
	}
}

// TestWarnsWithoutSessionSnapshot: a server started without
// -session-snapshot says once, at startup, that a restart forgets every
// audit history (docs/DEPLOYMENT.md §4); with the flag it does not.
func TestWarnsWithoutSessionSnapshot(t *testing.T) {
	bin := buildServer(t)
	const warning = "a restart forgets every one"
	logs := startServer(t, bin).terminate(t)
	if n := strings.Count(logs, warning); n != 1 {
		t.Fatalf("without -session-snapshot the log has %d lines containing %q, want 1:\n%s", n, warning, logs)
	}
	snap := filepath.Join(t.TempDir(), "sessions.json")
	if logs := startServer(t, bin, "-session-snapshot", snap).terminate(t); strings.Contains(logs, warning) {
		t.Fatalf("with -session-snapshot the log still warns:\n%s", logs)
	}
}
