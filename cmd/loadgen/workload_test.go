package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// hopDelay is each test server's handling time, so a sample's latency
// shows how many hops it spans.
const hopDelay = 20 * time.Millisecond

// countingServer answers every /v1/query with status and body after
// hopDelay, counting the requests it sees and checking that each one
// carries the analyst's identity.
func countingServer(t *testing.T, status int, body func() any) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.Method != http.MethodPost || r.URL.Path != "/v1/query" || r.Header.Get("X-Analyst-ID") != "alice" {
			t.Errorf("request %s %s as %q, want POST /v1/query as alice", r.Method, r.URL.Path, r.Header.Get("X-Analyst-ID"))
		}
		time.Sleep(hopDelay)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(body())
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestDoQueryFollows421 pins loadgen's misdirected-request handling: a
// 421 that names the primary is followed exactly once and the sample
// spans both hops; a 421 without primary_url, or a second 421 after the
// hop, is recorded as status 421.
func TestDoQueryFollows421(t *testing.T) {
	st := statement{sql: "SELECT sum(salary)", kind: "sum"}
	client := &http.Client{Timeout: 5 * time.Second}
	answer := func() any { return map[string]any{"denied": false, "answer": 7.5} }

	t.Run("follow", func(t *testing.T) {
		primary, primaryHits := countingServer(t, http.StatusOK, answer)
		replica, replicaHits := countingServer(t, http.StatusMisdirectedRequest, func() any {
			return map[string]any{"error": "read-only replica", "role": "replica", "primary_url": primary.URL}
		})
		s := doQuery(client, replica.URL, "alice", st)
		if !s.retried || s.failed || s.status != http.StatusOK || !s.answered || s.answer != 7.5 {
			t.Fatalf("sample %+v, want a retried answer of 7.5 with status 200", s)
		}
		if r, p := replicaHits.Load(), primaryHits.Load(); r != 1 || p != 1 {
			t.Fatalf("replica saw %d requests, primary %d; want 1 each", r, p)
		}
		if s.latency < 2*hopDelay {
			t.Fatalf("latency %v does not span both hops (each takes %v)", s.latency, hopDelay)
		}
	})

	t.Run("no-primary-url", func(t *testing.T) {
		replica, replicaHits := countingServer(t, http.StatusMisdirectedRequest, func() any {
			return map[string]any{"error": "read-only replica", "role": "replica"}
		})
		s := doQuery(client, replica.URL, "alice", st)
		if s.retried || s.failed || s.status != http.StatusMisdirectedRequest || s.answered || s.denied {
			t.Fatalf("sample %+v, want status 421 without a retry", s)
		}
		if n := replicaHits.Load(); n != 1 {
			t.Fatalf("replica saw %d requests, want 1", n)
		}
	})

	t.Run("once", func(t *testing.T) {
		last, lastHits := countingServer(t, http.StatusOK, answer)
		second, secondHits := countingServer(t, http.StatusMisdirectedRequest, func() any {
			return map[string]any{"error": "read-only replica", "primary_url": last.URL}
		})
		first, firstHits := countingServer(t, http.StatusMisdirectedRequest, func() any {
			return map[string]any{"error": "read-only replica", "primary_url": second.URL}
		})
		s := doQuery(client, first.URL, "alice", st)
		if !s.retried || s.status != http.StatusMisdirectedRequest || s.answered {
			t.Fatalf("sample %+v, want one retry ending in status 421", s)
		}
		if f, sec, l := firstHits.Load(), secondHits.Load(), lastHits.Load(); f != 1 || sec != 1 || l != 0 {
			t.Fatalf("hops saw %d, %d, %d requests; want 1, 1, 0", f, sec, l)
		}
	})
}
