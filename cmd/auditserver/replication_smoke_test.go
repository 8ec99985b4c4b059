package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// proc is one auditserver child process under test.
type proc struct {
	cmd  *exec.Cmd
	addr string
	logs chan string
}

// startServer launches the binary with the given extra flags and waits
// for its "listening on" line.
func startServer(t *testing.T, bin string, extra ...string) *proc {
	t.Helper()
	args := append([]string{"-n", "30", "-addr", "127.0.0.1:0", "-quiet"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	addrCh := make(chan string, 1)
	logDone := make(chan string, 1)
	go func() {
		var buf strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			buf.WriteString(line + "\n")
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		logDone <- buf.String()
	}()

	select {
	case addr := <-addrCh:
		return &proc{cmd: cmd, addr: addr, logs: logDone}
	case <-time.After(20 * time.Second):
		t.Fatalf("server (%v) never reported its listen address", extra)
		return nil
	}
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// getJSON decodes a GET response into out, returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

type replStatus struct {
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	Head    uint64 `json:"head"`
	Applied uint64 `json:"applied"`
}

type sessionsView struct {
	Sessions []struct {
		Analyst string `json:"analyst"`
		Seq     uint64 `json:"seq"`
		Digest  string `json:"digest"`
	} `json:"sessions"`
}

// transcript flattens a sessions listing to comparable analyst->seq/digest.
func transcript(t *testing.T, base string) map[string]string {
	t.Helper()
	var v sessionsView
	if code := getJSON(t, base+"/v1/sessions", &v); code != http.StatusOK {
		t.Fatalf("GET /v1/sessions: status %d", code)
	}
	out := map[string]string{}
	for _, s := range v.Sessions {
		out[s.Analyst] = fmt.Sprintf("%d:%s", s.Seq, s.Digest)
	}
	return out
}

// ask posts one queryset as the given analyst; denials are fine, only
// transport failures are fatal.
func ask(t *testing.T, base, analyst string, indices []int) {
	t.Helper()
	raw, _ := json.Marshal(map[string]any{"kind": "sum", "indices": indices})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/queryset", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Analyst-ID", analyst)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("query as %s: %v", analyst, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query as %s: status %d", analyst, resp.StatusCode)
	}
}

// TestReplicationSmoke is the end-to-end failover drill (`make
// replication-smoke`): two separate OS processes, 50 queries into the
// primary, transcript diff on the replica, SIGKILL the primary, promote
// the replica over HTTP, and keep serving writes — the §2.2
// simulatability argument exercised across real process boundaries.
func TestReplicationSmoke(t *testing.T) {
	bin := buildServer(t)
	primary := startServer(t, bin, "-role", "primary")
	replica := startServer(t, bin,
		"-role", "replica",
		"-primary-url", "http://"+primary.addr,
		"-replication-poll-wait", "500ms",
	)

	// 50 queries across three analysts; random-ish but deterministic sets.
	analysts := []string{"alice", "bob", "carol"}
	for i := 0; i < 50; i++ {
		lo, hi := i%20, i%20+3+i%7
		set := make([]int, 0, hi-lo)
		for j := lo; j < hi; j++ {
			set = append(set, j)
		}
		ask(t, primary.url(""), analysts[i%len(analysts)], set)
	}

	// The replica must converge on the primary's journal head.
	var pst replStatus
	if code := getJSON(t, primary.url("/v1/replication/status"), &pst); code != http.StatusOK {
		t.Fatalf("primary status: %d", code)
	}
	if pst.Role != "primary" || pst.Head == 0 {
		t.Fatalf("primary status %+v", pst)
	}
	deadline := time.Now().Add(15 * time.Second)
	var rst replStatus
	for {
		getJSON(t, replica.url("/v1/replication/status"), &rst)
		if rst.Applied >= pst.Head {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at applied=%d, primary head=%d", rst.Applied, pst.Head)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Transcript diff: every session's (seq, digest) must be identical.
	want := transcript(t, primary.url(""))
	got := transcript(t, replica.url(""))
	if len(want) == 0 {
		t.Fatal("primary reports no sessions")
	}
	for analyst, pos := range want {
		if got[analyst] != pos {
			t.Fatalf("transcript diverged for %s: primary %s, replica %s", analyst, pos, got[analyst])
		}
	}

	// Writes on the replica are fenced while the primary lives.
	raw, _ := json.Marshal(map[string]any{"kind": "sum", "indices": []int{0, 1, 2}})
	resp, err := http.Post(replica.url("/v1/queryset"), "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("write on replica: status %d, want 421", resp.StatusCode)
	}

	// Hard-kill the primary (no graceful drain) and promote the replica.
	primary.cmd.Process.Kill()
	primary.cmd.Wait()
	resp, err = http.Post(replica.url("/v1/replication/promote"), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&promoted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || promoted.Role != "primary" || promoted.Epoch == 0 {
		t.Fatalf("promote: status %d, %+v", resp.StatusCode, promoted)
	}

	// The promoted node serves the remaining traffic; transcripts only
	// ever extend the replicated prefix.
	for i := 0; i < 10; i++ {
		ask(t, replica.url(""), analysts[i%len(analysts)], []int{i, i + 1, i + 2, i + 3})
	}
	after := transcript(t, replica.url(""))
	for analyst, pos := range want {
		var beforeSeq, afterSeq uint64
		fmt.Sscanf(pos, "%d:", &beforeSeq)
		fmt.Sscanf(after[analyst], "%d:", &afterSeq)
		if afterSeq < beforeSeq {
			t.Fatalf("promoted transcript for %s regressed: %s -> %s", analyst, pos, after[analyst])
		}
	}
}
