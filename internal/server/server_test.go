package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/session"
)

// companySpec registers a sum and a max auditor over an n-record company
// table; it serves min queries with no auditor (422).
func companySpec(n int) *core.EngineSpec {
	ds := dataset.GenerateCompany(randx.New(1), dataset.DefaultCompanyConfig(n))
	sp := core.NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(n), nil }, query.Sum)
	sp.Register(func() (audit.Auditor, error) { return maxfull.New(n), nil }, query.Max)
	return sp
}

// newTestServer serves companySpec(n) with its engine decisions counted
// in the server's metrics registry.
func newTestServer(t *testing.T, n int) (*httptest.Server, *session.Manager) {
	t.Helper()
	sp := companySpec(n)
	reg := metrics.NewRegistry()
	sp.SetObserver(metrics.NewEngineCollector(reg))
	hs, _, mgr := newSessionServer(t, sp, session.Config{}, WithMetrics(reg))
	return hs, mgr
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// TestQueryEndpoint: SQL answers and denials over HTTP.
func TestQueryEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 60)
	resp, out := postJSON(t, srv.URL+"/v1/query", QueryRequest{SQL: "SELECT sum(salary) WHERE age >= 21"})
	if resp.StatusCode != http.StatusOK || out["denied"] == true {
		t.Fatalf("total should be answered: %d %v", resp.StatusCode, out)
	}
	// A complement that drops exactly one record must be denied: with the
	// total answered it would expose that record's salary.
	all := make([]int, 60)
	for i := range all {
		all[i] = i
	}
	resp, out = postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "sum", Indices: all[1:]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["denied"] != true {
		t.Fatalf("complement must be denied: %v", out)
	}
}

// TestQuerySetEndpoint: explicit index sets.
func TestQuerySetEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 20)
	resp, out := postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "max", Indices: []int{0, 1, 2, 3}})
	if resp.StatusCode != http.StatusOK || out["denied"] == true {
		t.Fatalf("fresh max should answer: %d %v", resp.StatusCode, out)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "median", Indices: []int{0, 1, 2}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unsupported aggregate should be 422, got %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind should be 400, got %d", resp.StatusCode)
	}
}

// TestUpdateAndStats: updates flow through and counters move.
func TestUpdateAndStats(t *testing.T) {
	srv, mgr := newTestServer(t, 20)
	if _, out := postJSON(t, srv.URL+"/v1/update", UpdateRequest{Index: 3, Value: 99999}); out["ok"] != true {
		t.Fatalf("update failed: %v", out)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Records != 20 || stats.Modifications != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if mgr.Dataset().Sensitive(3) != 99999 {
		t.Fatal("update did not reach the dataset")
	}
}

// TestSchemaEndpoint.
func TestSchemaEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 10)
	resp, err := http.Get(srv.URL + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["records"].(float64) != 10 {
		t.Fatalf("schema = %v", out)
	}
}

// TestMalformedBodies are 400s.
func TestMalformedBodies(t *testing.T) {
	srv, _ := newTestServer(t, 10)
	for _, ep := range []string{"/v1/query", "/v1/queryset", "/v1/update"} {
		resp, err := http.Post(srv.URL+ep, "application/json", bytes.NewReader([]byte("{")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", ep, resp.StatusCode)
		}
	}
}

// TestConcurrentQueriesSafe: hammer the server from many goroutines; the
// engine's lock must keep the auditors consistent (run with -race).
func TestConcurrentQueriesSafe(t *testing.T) {
	srv, mgr := newTestServer(t, 40)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lo := 21 + (g+i)%30
				sql := fmt.Sprintf("SELECT sum(salary) WHERE age BETWEEN %d AND %d", lo, lo+8)
				raw, _ := json.Marshal(QueryRequest{SQL: sql})
				resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(raw))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := mgr.Stats(session.DefaultAnalyst); st.Answered+st.Denied == 0 {
		t.Fatal("no queries were processed")
	}
}

// TestKnowledgeEndpoint: the exposure report reflects answered queries.
func TestKnowledgeEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 12)
	postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "max", Indices: []int{0, 1, 2, 3}})
	resp, err := http.Get(srv.URL + "/v1/knowledge")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out KnowledgeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	ks, ok := out.Auditors["max-full-disclosure"]
	if !ok {
		t.Fatalf("missing max auditor in %v", out.Auditors)
	}
	if len(ks) != 12 {
		t.Fatalf("knowledge entries = %d, want 12", len(ks))
	}
	bounded := 0
	for _, k := range ks {
		if k.Upper < 1e308 {
			bounded++
		}
	}
	if bounded != 4 {
		t.Fatalf("bounded elements = %d, want the 4 queried ones", bounded)
	}
}

// TestPrimeEndpoint: primed queries commit and stay answerable; an
// unsafe prime list is refused with 409.
func TestPrimeEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 10)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	resp, out := postJSON(t, srv.URL+"/v1/prime", PrimeRequest{
		Queries: []QuerySetRequest{
			{Kind: "sum", Indices: all},
			{Kind: "sum", Indices: all[:5]},
		},
	})
	if resp.StatusCode != http.StatusOK || out["primed"].(float64) != 2 {
		t.Fatalf("prime failed: %d %v", resp.StatusCode, out)
	}
	// Primed queries remain answerable.
	r2, out2 := postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "sum", Indices: all[:5]})
	if r2.StatusCode != http.StatusOK || out2["denied"] == true {
		t.Fatalf("primed query denied later: %v", out2)
	}
	// An unsafe prime list 409s (a singleton sum is always compromise).
	r3, _ := postJSON(t, srv.URL+"/v1/prime", PrimeRequest{
		Queries: []QuerySetRequest{{Kind: "sum", Indices: all[:1]}},
	})
	if r3.StatusCode != http.StatusConflict {
		t.Fatalf("unsafe prime should 409, got %d", r3.StatusCode)
	}
	// Malformed bodies 400.
	r4, _ := postJSON(t, srv.URL+"/v1/prime", map[string]any{"queries": []any{}})
	if r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty prime should 400, got %d", r4.StatusCode)
	}
}

// TestUnregisteredKind: a kind with no auditor is 422, not a denial.
func TestUnregisteredKind(t *testing.T) {
	srv, _ := newTestServer(t, 10) // registers Sum and Max only
	resp, _ := postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "min", Indices: []int{0, 1}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("min without auditor should 422, got %d", resp.StatusCode)
	}
}

// TestMethodNotAllowed: the JSON endpoints reject wrong verbs.
func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t, 10)
	resp, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query should 405, got %d", resp.StatusCode)
	}
}
