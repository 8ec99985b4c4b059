package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/randx"
	"queryaudit/internal/replica"
	"queryaudit/internal/session"
)

func replSpec(n int) *core.EngineSpec {
	ds := dataset.UniformDuplicateFree(randx.New(5), n, 1, 100)
	sp := core.NewEngineSpec(ds)
	if err := (core.StackConfig{Family: "full", N: n}).RegisterAuditors(sp); err != nil {
		panic(err)
	}
	return sp
}

// newReplicaServer builds a session server attached to a replication
// node in the given role.
func newReplicaServer(t *testing.T, role replica.Role) (string, *replica.Node) {
	t.Helper()
	mgr, err := session.NewManager(replSpec(8), session.Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	node := replica.NewNode(mgr, role, 3, "http://primary.internal:9090", replica.Config{})
	hs, _, _ := newSessionServerFrom(t, mgr, WithReplication(node))
	return hs, node
}

// newSessionServerFrom is newSessionServer over a pre-built manager.
func newSessionServerFrom(t *testing.T, mgr *session.Manager, opts ...Option) (string, *Server, *session.Manager) {
	t.Helper()
	srv := NewWithSessions(mgr, "salary", opts...)
	hs := newHTTP(t, srv)
	return hs, srv, mgr
}

// TestReplicaRejectsWrites: every state-mutating endpoint on a replica
// answers 421 with the primary's address, while reads stay open — the
// role gate that keeps a follower from forking the audit timeline.
func TestReplicaRejectsWrites(t *testing.T) {
	url, node := newReplicaServer(t, replica.RoleReplica)

	for _, path := range []string{"/v1/query", "/v1/queryset", "/v1/update", "/v1/prime"} {
		resp, err := http.Post(url+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Role       string `json:"role"`
			Epoch      uint64 `json:"epoch"`
			PrimaryURL string `json:"primary_url"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode 421 body: %v", path, err)
		}
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("%s on replica: status %d, want 421", path, resp.StatusCode)
		}
		if body.Role != "replica" || body.Epoch != 3 || body.PrimaryURL != "http://primary.internal:9090" {
			t.Fatalf("%s: 421 body %+v lacks routing context", path, body)
		}
	}

	for _, path := range []string{"/v1/sessions", "/v1/stats", "/v1/schema", "/healthz", "/v1/metrics"} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s on replica: status %d, want 200", path, resp.StatusCode)
		}
	}

	// Promotion opens the write path on the spot.
	if _, err := node.Promote(); err != nil {
		t.Fatal(err)
	}
	status, out := askAs(t, url, "alice", "sum", []int{0, 1, 2})
	if status != http.StatusOK {
		t.Fatalf("write after promote: status %d (%v), want 200", status, out)
	}
}

// TestQuarantinedSessionUnavailable: a session fenced after divergence
// answers 503 (with Retry-After) on session-scoped reads, while other
// analysts are untouched.
func TestQuarantinedSessionUnavailable(t *testing.T) {
	url, node := newReplicaServer(t, replica.RoleReplica)
	node.Quarantine("mallory", "digest mismatch at seq 7")

	req, _ := http.NewRequest(http.MethodGet, url+"/v1/stats", nil)
	req.Header.Set("X-Analyst-ID", "mallory")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined analyst stats: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if !strings.Contains(string(raw), "quarantined") || !strings.Contains(string(raw), "digest mismatch at seq 7") {
		t.Fatalf("503 body %q does not explain the quarantine", raw)
	}

	req, _ = http.NewRequest(http.MethodGet, url+"/v1/stats", nil)
	req.Header.Set("X-Analyst-ID", "alice")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy analyst stats: status %d, want 200", resp.StatusCode)
	}
}

// TestMetricsContentNegotiation: /v1/metrics speaks JSON by default and
// the Prometheus text exposition when a scrape asks for it.
func TestMetricsContentNegotiation(t *testing.T) {
	hs, _, _ := newSessionServerFrom(t, newPlainManager(t))

	get := func(accept string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, hs+"/v1/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(raw)
	}

	// Default (curl, browser): JSON.
	resp, body := get("")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q, want application/json", ct)
	}
	if !json.Valid([]byte(body)) {
		t.Fatal("default metrics body is not JSON")
	}

	// Prometheus scrape: text exposition.
	for _, accept := range []string{
		"text/plain",
		"text/plain;version=0.0.4;q=0.5",
		"application/openmetrics-text; version=1.0.0, text/plain;version=0.0.4;q=0.5",
	} {
		resp, body = get(accept)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("Accept %q: content type %q, want text/plain exposition", accept, ct)
		}
		if !strings.Contains(body, "# TYPE") {
			t.Fatalf("Accept %q: body has no # TYPE lines:\n%s", accept, body)
		}
	}

	// An explicit JSON preference wins even when text/plain follows.
	resp, body = get("application/json, text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json-first accept: content type %q, want application/json", ct)
	}
	if !json.Valid([]byte(body)) {
		t.Fatal("json-first accept: body is not JSON")
	}
}

func newPlainManager(t *testing.T) *session.Manager {
	t.Helper()
	mgr, err := session.NewManager(replSpec(8), session.Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr
}

// newHTTP wraps a handler in an httptest server bound to this test.
func newHTTP(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}
