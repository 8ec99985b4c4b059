package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/session"
)

// newSessionServer builds a multi-analyst server over the given spec.
func newSessionServer(t *testing.T, sp *core.EngineSpec, cfg session.Config, opts ...Option) (*httptest.Server, *Server, *session.Manager) {
	t.Helper()
	cfg.NoJanitor = true
	mgr, err := session.NewManager(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv := NewWithSessions(mgr, "salary", opts...)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs, srv, mgr
}

// askAs posts one queryset request under the given analyst identity.
func askAs(t *testing.T, url, analyst, kind string, indices []int) (int, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(QuerySetRequest{Kind: kind, Indices: indices})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/queryset", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if analyst != "" {
		req.Header.Set("X-Analyst-ID", analyst)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestSessionIsolationCompromiseSequence interleaves the paper's §2
// max-query compromise sequence (answer max over S, then over S minus
// its argmax — the second must be denied or the argmax's value is
// exposed) between two analysts, across the full and probabilistic
// auditor families. Isolation demands: each analyst's transcript equals
// a solo run, so A's history never denies (or loosens) B.
func TestSessionIsolationCompromiseSequence(t *testing.T) {
	n := 8
	fullDS := func() *dataset.Dataset { return dataset.UniformDuplicateFree(randx.New(5), n, 1, 100) }
	probDS := func() *dataset.Dataset { return dataset.UniformDuplicateFree(randx.New(5), n, 0, 1) }
	families := []struct {
		name string
		// wantDeny: the exact-disclosure auditors MUST deny the probe; the
		// probabilistic criterion tolerates bounded posterior drift and may
		// legitimately answer this short sequence (its denial behavior is
		// exercised by the internal/session determinism tests), so for it
		// the test asserts only transcript equality.
		wantDeny bool
		makeDS   func() *dataset.Dataset
		spec     func(ds *dataset.Dataset) *core.EngineSpec
	}{
		{"maxfull", true, fullDS, func(ds *dataset.Dataset) *core.EngineSpec {
			sp := core.NewEngineSpec(ds)
			sp.Register(func() (audit.Auditor, error) { return maxfull.New(n), nil }, query.Max)
			return sp
		}},
		{"maxminfull", true, fullDS, func(ds *dataset.Dataset) *core.EngineSpec {
			sp := core.NewEngineSpec(ds)
			sp.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
			return sp
		}},
		{"maxminprob", false, probDS, func(ds *dataset.Dataset) *core.EngineSpec {
			sp := core.NewEngineSpec(ds)
			sp.Register(func() (audit.Auditor, error) {
				return maxminprob.New(n, maxminprob.Params{
					Game: mcpar.Game{
						Lambda: 0.45, Gamma: 2, Delta: 0.2, T: 2,
						Workers: 1, Seed: 12,
					},
					OuterSamples: 8, InnerSamples: 8, MixFactor: 1,
				})
			}, query.Max, query.Min)
			return sp
		}},
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	argmax := func(ds *dataset.Dataset) int {
		best := 0
		for i := 1; i < n; i++ {
			if ds.Sensitive(i) > ds.Sensitive(best) {
				best = i
			}
		}
		return best
	}

	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			ds := fam.makeDS()
			am := argmax(ds)
			var rest []int
			for _, i := range all {
				if i != am {
					rest = append(rest, i)
				}
			}
			game := [][]int{all, rest}

			// Solo run: one analyst alone on a fresh deployment.
			solo := func() []map[string]any {
				hs, _, _ := newSessionServer(t, fam.spec(fam.makeDS()), session.Config{})
				var tr []map[string]any
				for _, set := range game {
					code, out := askAs(t, hs.URL, "solo", "max", set)
					if code != http.StatusOK {
						t.Fatalf("solo status %d: %v", code, out)
					}
					tr = append(tr, out)
				}
				return tr
			}()
			if fam.wantDeny && solo[1]["denied"] != true {
				t.Fatalf("%s: compromise probe should be denied solo: %v", fam.name, solo[1])
			}

			// Interleaved run: alice and bob alternate the same sequence on
			// one deployment.
			hs, _, _ := newSessionServer(t, fam.spec(ds), session.Config{})
			transcripts := map[string][]map[string]any{}
			for _, set := range game {
				for _, who := range []string{"alice", "bob"} {
					code, out := askAs(t, hs.URL, who, "max", set)
					if code != http.StatusOK {
						t.Fatalf("%s status %d: %v", who, code, out)
					}
					transcripts[who] = append(transcripts[who], out)
				}
			}
			for _, who := range []string{"alice", "bob"} {
				for i := range game {
					if fmt.Sprint(transcripts[who][i]) != fmt.Sprint(solo[i]) {
						t.Fatalf("%s: %s step %d diverged from solo: %v vs %v",
							fam.name, who, i, transcripts[who][i], solo[i])
					}
				}
			}
		})
	}
}

// TestAnalystIdentityPlumbing: header, query parameter, default
// fallback, and malformed IDs.
func TestAnalystIdentityPlumbing(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3, 4, 5})
	sp := core.NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(5), nil }, query.Sum)
	hs, _, mgr := newSessionServer(t, sp, session.Config{})

	// Header identity.
	if code, _ := askAs(t, hs.URL, "alice", "sum", []int{0, 1}); code != http.StatusOK {
		t.Fatalf("header identity: %d", code)
	}
	// Query-parameter identity.
	resp, out := postJSON(t, hs.URL+"/v1/queryset?analyst=carol", QuerySetRequest{Kind: "sum", Indices: []int{0, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("param identity: %d %v", resp.StatusCode, out)
	}
	// No identity → default session.
	if code, _ := askAs(t, hs.URL, "", "sum", []int{0, 1}); code != http.StatusOK {
		t.Fatal("default identity should work")
	}
	for _, s := range mgr.Sessions() {
		switch s.Analyst {
		case "alice", "carol", session.DefaultAnalyst:
		default:
			t.Fatalf("unexpected session %q", s.Analyst)
		}
	}
	// Malformed IDs → 400 before any session is touched.
	long := make([]byte, 200)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{string(long), "has space"} {
		if code, _ := askAs(t, hs.URL, bad, "sum", []int{0}); code != http.StatusBadRequest {
			t.Fatalf("bad analyst %q: status %d, want 400", bad, code)
		}
	}
	// Control characters can't even be sent as header values; check the
	// query-parameter path rejects them too.
	resp, out = postJSON(t, hs.URL+"/v1/queryset?analyst="+url.QueryEscape("ctrl\x01char"),
		QuerySetRequest{Kind: "sum", Indices: []int{0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ctrl-char analyst: status %d %v, want 400", resp.StatusCode, out)
	}
	// Per-analyst stats.
	r, err := http.Get(hs.URL + "/v1/stats?analyst=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Analyst != "alice" || st.Answered != 1 {
		t.Fatalf("alice stats: %+v", st)
	}
}

// TestSessionAdmission503: beyond -max-sessions, new analysts receive
// 503 with a Retry-After hint; existing ones keep working.
func TestSessionAdmission503(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3})
	sp := core.NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(3), nil }, query.Sum)
	hs, _, _ := newSessionServer(t, sp, session.Config{MaxSessions: 2})

	if code, _ := askAs(t, hs.URL, "alice", "sum", []int{0}); code != http.StatusOK {
		t.Fatal("alice should be admitted")
	}
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/queryset", bytes.NewReader([]byte(`{"kind":"sum","indices":[0]}`)))
	req.Header.Set("X-Analyst-ID", "mallory")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity analyst: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	if code, _ := askAs(t, hs.URL, "alice", "sum", []int{1}); code != http.StatusOK {
		t.Fatal("admitted analyst must keep working")
	}
}

// TestReadyzGate: a readiness-gated server answers 503 on /readyz and
// session-scoped endpoints (healthz and metrics stay open) until
// MarkReady.
func TestReadyzGate(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3})
	sp := core.NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(3), nil }, query.Sum)
	hs, srv, _ := newSessionServer(t, sp, session.Config{}, WithReadinessGate())

	get := func(path string) int {
		r, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz pre-ready: %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz must stay live: %d", got)
	}
	if got := get("/v1/metrics"); got != http.StatusOK {
		t.Fatalf("metrics must stay open: %d", got)
	}
	if code, _ := askAs(t, hs.URL, "alice", "sum", []int{0}); code != http.StatusServiceUnavailable {
		t.Fatalf("query pre-ready: %d, want 503", code)
	}
	if got := get("/v1/stats"); got != http.StatusServiceUnavailable {
		t.Fatalf("stats pre-ready: %d, want 503", got)
	}
	srv.MarkReady()
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz post-ready: %d", got)
	}
	if code, _ := askAs(t, hs.URL, "alice", "sum", []int{0}); code != http.StatusOK {
		t.Fatalf("query post-ready: %d", code)
	}
}

// TestSessionsEndpointAndMetrics: the admin view lists sessions, and
// /v1/metrics exports the sessions_* series.
func TestSessionsEndpointAndMetrics(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3, 4})
	sp := core.NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(4), nil }, query.Sum)
	reg := metrics.NewRegistry()
	cfg := session.Config{MaxLive: 2, Observer: metrics.NewSessionCollector(reg, 16)}
	hs, _, mgr := newSessionServer(t, sp, cfg, WithMetrics(reg))

	for i, who := range []string{"alice", "bob", "carol"} {
		if code, _ := askAs(t, hs.URL, who, "sum", []int{i}); code != http.StatusOK {
			t.Fatalf("%s: %d", who, code)
		}
	}
	mgr.EvictEngine("alice")
	if code, _ := askAs(t, hs.URL, "alice", "sum", []int{3}); code != http.StatusOK {
		t.Fatal("alice after evict")
	}

	r, err := http.Get(hs.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var sessions SessionsResponse
	if err := json.NewDecoder(r.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions.Sessions) != 4 { // default + 3 analysts
		t.Fatalf("listed %d sessions: %+v", len(sessions.Sessions), sessions)
	}
	if sessions.Tracked != 4 {
		t.Fatalf("tracked=%d", sessions.Tracked)
	}

	r2, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(r2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sessions_created_total"] < 4 {
		t.Fatalf("sessions_created_total=%d", snap.Counters["sessions_created_total"])
	}
	if snap.Counters["sessions_replayed_total"] < 1 {
		t.Fatalf("sessions_replayed_total=%d", snap.Counters["sessions_replayed_total"])
	}
	if snap.Gauges["sessions_tracked"] != 4 {
		t.Fatalf("sessions_tracked=%d", snap.Gauges["sessions_tracked"])
	}
	if snap.Gauges["sessions_live"] < 1 {
		t.Fatalf("sessions_live=%d", snap.Gauges["sessions_live"])
	}
	if _, ok := snap.Histograms["session_replay_seconds"]; !ok {
		t.Fatal("session_replay_seconds histogram missing")
	}
}
