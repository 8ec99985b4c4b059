package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/session"
)

// TestZeroAnswerNotOmitted: a legitimate answer of exactly 0 must appear
// in the JSON body as "answer":0 — with the old `omitempty` on a plain
// float64 it vanished and was indistinguishable from a denial's missing
// field.
func TestZeroAnswerNotOmitted(t *testing.T) {
	srv, _ := newTestServer(t, 20)
	// Zero both records, then sum them: answered, and exactly 0.
	for _, i := range []int{0, 1} {
		if _, out := postJSON(t, srv.URL+"/v1/update", UpdateRequest{Index: i, Value: 0}); out["ok"] != true {
			t.Fatalf("update %d failed: %v", i, out)
		}
	}
	raw, _ := json.Marshal(QuerySetRequest{Kind: "sum", Indices: []int{0, 1}})
	resp, err := http.Post(srv.URL+"/v1/queryset", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"answer":0`) {
		t.Fatalf("zero answer omitted from body: %s", body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Denied || out.Answer == nil || *out.Answer != 0 {
		t.Fatalf("round-trip = %+v, want denied=false answer=0", out)
	}
	// And a denial still omits the field entirely.
	raw, _ = json.Marshal(QuerySetRequest{Kind: "sum", Indices: []int{0}})
	resp2, err := http.Post(srv.URL+"/v1/queryset", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(body2), "answer") {
		t.Fatalf("denial should omit answer: %s", body2)
	}
}

// TestKnowledgeRace: GET /v1/knowledge while queries mutate auditor
// state — the old handler read auditor.Knowledge() without the engine
// lock and fails this test under -race.
func TestKnowledgeRace(t *testing.T) {
	srv, _ := newTestServer(t, 30)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			lo := i % 25
			raw, _ := json.Marshal(QuerySetRequest{Kind: "max", Indices: []int{lo, lo + 1, lo + 2}})
			resp, err := http.Post(srv.URL+"/v1/queryset", "application/json", bytes.NewReader(raw))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			resp, err := http.Get(srv.URL + "/v1/knowledge")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentLoad mixes every endpoint from many goroutines and then
// checks the no-breach accounting invariant: the engine's final
// answered+denied equals exactly the number of 200-with-outcome query
// responses the clients saw (no lost updates, no double counts, no torn
// stats).
func TestConcurrentLoad(t *testing.T) {
	srv, mgr := newTestServer(t, 50)
	var answered, denied atomic.Int64
	var wg sync.WaitGroup
	client := srv.Client()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 5 {
				case 0: // SQL query
					lo := 21 + (g*3+i)%30
					raw, _ := json.Marshal(QueryRequest{SQL: fmt.Sprintf(
						"SELECT sum(salary) WHERE age BETWEEN %d AND %d", lo, lo+9)})
					resp, err := client.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(raw))
					if err != nil {
						continue
					}
					tallyOutcome(resp, &answered, &denied)
				case 1: // explicit query set
					lo := (g*5 + i) % 45
					raw, _ := json.Marshal(QuerySetRequest{Kind: "max", Indices: []int{lo, lo + 1, lo + 2, lo + 3}})
					resp, err := client.Post(srv.URL+"/v1/queryset", "application/json", bytes.NewReader(raw))
					if err != nil {
						continue
					}
					tallyOutcome(resp, &answered, &denied)
				case 2: // update
					raw, _ := json.Marshal(UpdateRequest{Index: (g + i) % 50, Value: float64(1000 * (g + i))})
					resp, err := client.Post(srv.URL+"/v1/update", "application/json", bytes.NewReader(raw))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 3: // knowledge
					resp, err := client.Get(srv.URL + "/v1/knowledge")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 4: // stats must never be torn
					resp, err := client.Get(srv.URL + "/v1/stats")
					if err != nil {
						continue
					}
					var st StatsResponse
					json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if st.Answered < 0 || st.Denied < 0 || st.Records != 50 {
						t.Errorf("bad stats snapshot: %+v", st)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := mgr.Stats(session.DefaultAnalyst)
	if int64(st.Answered) != answered.Load() || int64(st.Denied) != denied.Load() {
		t.Fatalf("accounting breach: engine answered=%d denied=%d, clients saw answered=%d denied=%d",
			st.Answered, st.Denied, answered.Load(), denied.Load())
	}
	if answered.Load()+denied.Load() == 0 {
		t.Fatal("no queries were processed")
	}
}

// tallyOutcome counts a 200 query response as answered or denied and
// drains/ closes the body.
func tallyOutcome(resp *http.Response, answered, denied *atomic.Int64) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var out QueryResponse
	if json.NewDecoder(resp.Body).Decode(&out) != nil {
		return
	}
	if out.Denied {
		denied.Add(1)
	} else {
		answered.Add(1)
	}
}

// TestHealthz: liveness probe is served.
func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t, 5)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, out)
	}
}

// TestMetricsEndpoint: HTTP and engine counters are exported and move.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 20)
	postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "sum", Indices: []int{0, 1, 2, 3}})
	postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "nope"})
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["http_requests_total"] < 2 {
		t.Fatalf("http_requests_total = %d, want >= 2", snap.Counters["http_requests_total"])
	}
	if snap.Counters["http_requests_total_v1_queryset"] != 2 {
		t.Fatalf("per-route counter = %d, want 2", snap.Counters["http_requests_total_v1_queryset"])
	}
	if snap.Counters["engine_answered_total_sum"] != 1 {
		t.Fatalf("engine_answered_total_sum = %d, want 1", snap.Counters["engine_answered_total_sum"])
	}
	if snap.Counters["http_responses_total_4xx"] < 1 {
		t.Fatalf("4xx counter = %d, want >= 1", snap.Counters["http_responses_total_4xx"])
	}
	if snap.Histograms["http_request_seconds"].Count < 2 {
		t.Fatalf("latency histogram count = %d, want >= 2", snap.Histograms["http_request_seconds"].Count)
	}
	if snap.Histograms["engine_decide_seconds"].Count != 1 {
		t.Fatalf("decide histogram count = %d, want 1", snap.Histograms["engine_decide_seconds"].Count)
	}
}

// TestMetricsPromScrapeBuffered: the Prometheus exposition is rendered
// to a buffer before the status line goes out (errsink finding: a
// mid-render failure used to tear the 200 body), so a successful scrape
// carries a Content-Length the scraper can verify.
func TestMetricsPromScrapeBuffered(t *testing.T) {
	srv, _ := newTestServer(t, 20)
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length = %d, body is %d bytes", resp.ContentLength, len(body))
	}
	if !strings.Contains(string(body), "http_requests_total") {
		t.Fatalf("exposition missing counters:\n%s", body)
	}
}

// newLimitedServer builds a server with tight limits for the 413/429
// tests.
func newLimitedServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	hs, _, _ := newSessionServer(t, companySpec(20), session.Config{}, WithOptions(opts))
	return hs
}

// TestBodyTooLarge: oversized POST bodies are 413, not 400.
func TestBodyTooLarge(t *testing.T) {
	opts := Defaults()
	opts.MaxBodyBytes = 64
	srv := newLimitedServer(t, opts)
	big := fmt.Sprintf(`{"sql": %q}`, strings.Repeat("x", 200))
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestTooManyIndices: index lists over the limit are 413 on both
// /v1/queryset and /v1/prime; the prime query-count limit too.
func TestTooManyIndices(t *testing.T) {
	opts := Defaults()
	opts.MaxIndices = 4
	opts.MaxPrimeQueries = 2
	srv := newLimitedServer(t, opts)
	resp, _ := postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "sum", Indices: []int{0, 1, 2, 3, 4}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("queryset over limit: status %d, want 413", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/prime", PrimeRequest{Queries: []QuerySetRequest{
		{Kind: "sum", Indices: []int{0, 1, 2, 3, 4}},
	}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("prime indices over limit: status %d, want 413", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/prime", PrimeRequest{Queries: []QuerySetRequest{
		{Kind: "sum", Indices: []int{0, 1}},
		{Kind: "sum", Indices: []int{0, 1}},
		{Kind: "sum", Indices: []int{0, 1}},
	}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("prime query count over limit: status %d, want 413", resp.StatusCode)
	}
	// At the limit still works.
	resp, out := postJSON(t, srv.URL+"/v1/queryset", QuerySetRequest{Kind: "sum", Indices: []int{0, 1, 2, 3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-limit queryset: status %d %v", resp.StatusCode, out)
	}
}

// slowAuditor answers after a pause, to hold requests in flight.
type slowAuditor struct {
	delay time.Duration
}

func (a *slowAuditor) Name() string { return "slow" }
func (a *slowAuditor) Decide(query.Query) (audit.Decision, error) {
	time.Sleep(a.delay)
	return audit.Answer, nil
}
func (a *slowAuditor) Record(query.Query, float64) {}

// slowSpec serves sum queries over n zeros through a slowAuditor.
func slowSpec(n int, delay time.Duration) *core.EngineSpec {
	sp := core.NewEngineSpec(dataset.FromValues(make([]float64, n)))
	sp.Register(func() (audit.Auditor, error) { return &slowAuditor{delay: delay}, nil }, query.Sum)
	return sp
}

// TestPerClientThrottle: with a concurrency cap of 1, parallel requests
// from the same client get 429s while one is in flight.
func TestPerClientThrottle(t *testing.T) {
	opts := Defaults()
	opts.PerClientConcurrency = 1
	srv, _, _ := newSessionServer(t, slowSpec(10, 300*time.Millisecond), session.Config{}, WithOptions(opts))

	var ok200, throttled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			raw, _ := json.Marshal(QuerySetRequest{Kind: "sum", Indices: []int{g, g + 1}})
			resp, err := http.Post(srv.URL+"/v1/queryset", "application/json", bytes.NewReader(raw))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				throttled.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("no request succeeded under the limiter")
	}
	if throttled.Load() == 0 {
		t.Fatal("no request was throttled despite cap=1 and 300ms handlers")
	}
}

// TestConcurrentAnalystChurn: many analysts hammer a session-mode
// server whose MaxLive is far below the analyst count, so engines are
// constantly evicted and rebuilt by journal replay while other requests
// are in flight. Every analyst runs the same fixed script, so (a) all
// twelve transcripts must be bit-identical — eviction, replay, and
// shard contention must never leak one analyst's history into
// another's decisions — and (b) each analyst's /v1/stats tallies must
// equal what that analyst's client observed. Run under -race this also
// exercises the manager's shard/session/dataset lock ordering.
func TestConcurrentAnalystChurn(t *testing.T) {
	const n, analysts, steps = 16, 12, 20
	ds := dataset.UniformDuplicateFree(randx.New(11), n, 1, 100)
	sp := core.NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(n), nil }, query.Sum)
	sp.Register(func() (audit.Auditor, error) { return maxfull.New(n), nil }, query.Max)
	mgr, err := session.NewManager(sp, session.Config{MaxLive: 2, Shards: 4, NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	hs := httptest.NewServer(NewWithSessions(mgr, "salary"))
	t.Cleanup(hs.Close)

	// One fixed script, shared by every analyst.
	type move struct {
		kind    string
		indices []int
	}
	rng := randx.New(21)
	var script []move
	for i := 0; i < steps; i++ {
		kind := "sum"
		if i%3 == 2 {
			kind = "max"
		}
		perm := rng.Perm(n)
		script = append(script, move{kind: kind, indices: perm[:2+rng.Intn(6)]})
	}

	transcripts := make([][]string, analysts)
	tallies := make([]struct{ answered, denied int64 }, analysts)
	var wg sync.WaitGroup
	for a := 0; a < analysts; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			who := fmt.Sprintf("churn-%02d", a)
			for _, mv := range script {
				code, out := askAs(t, hs.URL, who, mv.kind, mv.indices)
				if code != http.StatusOK {
					t.Errorf("%s: status %d: %v", who, code, out)
					return
				}
				transcripts[a] = append(transcripts[a], fmt.Sprintf("denied=%v answer=%v", out["denied"], out["answer"]))
				if out["denied"] == true {
					tallies[a].denied++
				} else {
					tallies[a].answered++
				}
			}
		}(a)
	}
	wg.Wait()

	for a := 1; a < analysts; a++ {
		for i := range transcripts[0] {
			if transcripts[a][i] != transcripts[0][i] {
				t.Fatalf("analyst %d step %d diverged under churn: %s vs %s",
					a, i, transcripts[a][i], transcripts[0][i])
			}
		}
	}
	if tallies[0].answered == 0 || tallies[0].denied == 0 {
		t.Fatalf("degenerate script (answered=%d denied=%d)", tallies[0].answered, tallies[0].denied)
	}
	for a := 0; a < analysts; a++ {
		resp, err := http.Get(hs.URL + fmt.Sprintf("/v1/stats?analyst=churn-%02d", a))
		if err != nil {
			t.Fatal(err)
		}
		var st StatsResponse
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if int64(st.Answered) != tallies[a].answered || int64(st.Denied) != tallies[a].denied {
			t.Fatalf("analyst %d stats %+v, client saw answered=%d denied=%d",
				a, st, tallies[a].answered, tallies[a].denied)
		}
	}
}

// TestRunGracefulShutdown: Run drains an in-flight request after ctx
// cancellation and returns nil.
func TestRunGracefulShutdown(t *testing.T) {
	mgr, err := session.NewManager(slowSpec(10, 200*time.Millisecond), session.Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	s := NewWithSessions(mgr, "salary")

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	base := "http://" + addr.String()

	// Fire a slow request, cancel mid-flight, and expect it to finish.
	reqDone := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(QuerySetRequest{Kind: "sum", Indices: []int{0, 1}})
		resp, err := http.Post(base+"/v1/queryset", "application/json", bytes.NewReader(raw))
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // request is now inside the slow decide
	cancel()
	if status := <-reqDone; status != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200 (drained gracefully)", status)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v, want nil on clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	// The socket is closed: new connections fail.
	if _, err := net.DialTimeout("tcp", addr.String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
