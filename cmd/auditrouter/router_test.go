package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/cluster"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/server"
	"queryaudit/internal/session"
)

func quietRouter(t *testing.T, fleetDoc string) *router {
	t.Helper()
	fleet, err := cluster.ParseFleet(strings.NewReader(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := newRouter(fleet, routerConfig{
		Logger:          log.New(io.Discard, "", 0),
		MaxBodyBytes:    1 << 20,
		BreakerFailures: 2,
		BreakerCooldown: time.Minute,
		RequestTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// echoShard is a minimal fake shard: it answers every request with its
// shard ID (header and body) and tallies the analysts it saw.
type echoShard struct {
	id   string
	mu   sync.Mutex
	seen map[string]int
}

func newEchoShard(t *testing.T, id string) (*echoShard, string) {
	t.Helper()
	es := &echoShard{id: id, seen: make(map[string]int)}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		es.mu.Lock()
		es.seen[r.Header.Get("X-Analyst-ID")]++
		es.mu.Unlock()
		w.Header().Set("X-Shard-ID", es.id)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"shard":%q}`, es.id)
	}))
	t.Cleanup(hs.Close)
	return es, hs.URL
}

func twoEchoFleet(t *testing.T) (string, *echoShard, *echoShard) {
	t.Helper()
	esA, urlA := newEchoShard(t, "shard-a")
	esB, urlB := newEchoShard(t, "shard-b")
	doc := fmt.Sprintf(`{"shards": [
		{"id": "shard-a", "primary": %q},
		{"id": "shard-b", "primary": %q}
	]}`, urlA, urlB)
	return doc, esA, esB
}

func postQueryVia(t *testing.T, rt *router, analyst string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/queryset", strings.NewReader(`{"kind":"sum","indices":[0,1]}`))
	req.Header.Set("X-Analyst-ID", analyst)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec
}

// TestRouterRoutesByRingOwner: every analyst lands on exactly the shard
// the descriptor's ring assigns, and the response names that shard.
func TestRouterRoutesByRingOwner(t *testing.T) {
	doc, esA, esB := twoEchoFleet(t)
	rt := quietRouter(t, doc)
	fleet, _ := cluster.ParseFleet(strings.NewReader(doc))
	for i := 0; i < 20; i++ {
		analyst := fmt.Sprintf("analyst-%d", i)
		owner, err := fleet.Owner(analyst)
		if err != nil {
			t.Fatal(err)
		}
		rec := postQueryVia(t, rt, analyst)
		if rec.Code != http.StatusOK {
			t.Fatalf("analyst %s: %d %s", analyst, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Shard-ID"); got != owner.ID {
			t.Fatalf("analyst %s answered by %s, ring owner is %s", analyst, got, owner.ID)
		}
	}
	esA.mu.Lock()
	sawA := len(esA.seen)
	esA.mu.Unlock()
	esB.mu.Lock()
	sawB := len(esB.seen)
	esB.mu.Unlock()
	if sawA == 0 || sawB == 0 {
		t.Fatalf("degenerate placement: shard-a saw %d analysts, shard-b saw %d", sawA, sawB)
	}
}

// TestRouterFollowsSameShard421: a member that is no longer primary
// answers 421 naming its successor; the router must adopt the named URL
// as the shard's active member and retry the request there — this is
// how it converges on a promotion it did not witness.
func TestRouterFollowsSameShard421(t *testing.T) {
	_, promotedURL := newEchoShard(t, "shard-a")
	demoted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		_ = json.NewEncoder(w).Encode(cluster.MisdirectedBody{
			Error: "not primary", Shard: "shard-a", Role: "replica", PrimaryURL: promotedURL,
		})
	}))
	t.Cleanup(demoted.Close)

	doc := fmt.Sprintf(`{"shards": [{"id": "shard-a", "primary": %q, "replica": %q}]}`, demoted.URL, promotedURL)
	rt := quietRouter(t, doc)
	rec := postQueryVia(t, rt, "alice")
	if rec.Code != http.StatusOK {
		t.Fatalf("after 421 follow: %d %s", rec.Code, rec.Body)
	}
	st, err := rt.ownerState("alice")
	if err != nil {
		t.Fatal(err)
	}
	if active, _ := st.view(time.Now()); active != promotedURL {
		t.Fatalf("router active = %s, want the promoted member %s", active, promotedURL)
	}
	// Subsequent requests go straight to the promoted member.
	if rec := postQueryVia(t, rt, "alice"); rec.Code != http.StatusOK {
		t.Fatalf("second request: %d %s", rec.Code, rec.Body)
	}
}

// TestRouterCrossShard421Hop: an ownership 421 (mid-rebalance window)
// is followed for exactly one hop without touching the routing view.
func TestRouterCrossShard421Hop(t *testing.T) {
	_, realOwnerURL := newEchoShard(t, "shard-b")
	var fencer *httptest.Server
	fencer = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		_ = json.NewEncoder(w).Encode(cluster.MisdirectedBody{
			Error: "moved", Shard: "shard-b", PrimaryURL: realOwnerURL,
		})
	}))
	t.Cleanup(fencer.Close)

	// A one-shard fleet: the ring sends everything to the fencing node,
	// which redirects cross-shard (the descriptor the router holds is
	// stale mid-rebalance).
	doc := fmt.Sprintf(`{"shards": [{"id": "shard-a", "primary": %q}]}`, fencer.URL)
	rt := quietRouter(t, doc)
	rec := postQueryVia(t, rt, "alice")
	if rec.Code != http.StatusOK {
		t.Fatalf("after ownership hop: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Shard-ID"); got != "shard-b" {
		t.Fatalf("answered by %s, want shard-b", got)
	}
	st, err := rt.ownerState("alice")
	if err != nil {
		t.Fatal(err)
	}
	if active, _ := st.view(time.Now()); active != fencer.URL {
		t.Fatalf("ownership hop mutated the routing view: active = %s", active)
	}
}

// deadURL returns an address nothing listens on.
func deadURL(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	l.Close()
	return url
}

// TestRouterBreakerFailsOverToReplica: consecutive transport failures
// on the primary trip the breaker and the request is retried on the
// replica within the SAME request once the threshold is met.
func TestRouterBreakerFailsOverToReplica(t *testing.T) {
	_, replicaURL := newEchoShard(t, "shard-a")
	doc := fmt.Sprintf(`{"shards": [{"id": "shard-a", "primary": %q, "replica": %q}]}`, deadURL(t), replicaURL)
	rt := quietRouter(t, doc) // BreakerFailures: 2

	// First request: one failure recorded, below threshold → 502.
	if rec := postQueryVia(t, rt, "alice"); rec.Code != http.StatusBadGateway {
		t.Fatalf("first request: %d, want 502 while breaker counts", rec.Code)
	}
	// Second request: threshold reached, breaker flips, replica answers.
	rec := postQueryVia(t, rt, "alice")
	if rec.Code != http.StatusOK {
		t.Fatalf("second request: %d %s, want failover to replica", rec.Code, rec.Body)
	}
	st, err := rt.ownerState("alice")
	if err != nil {
		t.Fatal(err)
	}
	if active, open := st.view(time.Now()); active != replicaURL || !open {
		t.Fatalf("breaker state: active=%s open=%v, want replica with open breaker", active, open)
	}
}

// TestRouterUpdateBroadcast: a dataset update must land on every shard.
func TestRouterUpdateBroadcast(t *testing.T) {
	var hitA, hitB atomic.Int64
	mk := func(hits *atomic.Int64, id string) string {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/update" {
				hits.Add(1)
			}
			w.Header().Set("X-Shard-ID", id)
			fmt.Fprint(w, `{"ok":true}`)
		}))
		t.Cleanup(hs.Close)
		return hs.URL
	}
	doc := fmt.Sprintf(`{"shards": [
		{"id": "shard-a", "primary": %q},
		{"id": "shard-b", "primary": %q}
	]}`, mk(&hitA, "shard-a"), mk(&hitB, "shard-b"))
	rt := quietRouter(t, doc)

	req := httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(`{"index":0,"value":3}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, rec.Body)
	}
	if hitA.Load() != 1 || hitB.Load() != 1 {
		t.Fatalf("update hit shard-a %d times, shard-b %d times; want 1 and 1", hitA.Load(), hitB.Load())
	}
}

// --- end-to-end rebalance over real shard servers ---

func shardSpec(n int) *core.EngineSpec {
	ds := dataset.UniformDuplicateFree(randx.New(5), n, 1, 100)
	sp := core.NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(n), nil }, query.Sum)
	sp.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
	return sp
}

// lateServer lets us allocate a URL before the handler exists (node
// views need the descriptor, the descriptor needs the URLs).
func lateServer(t *testing.T) (setHandler func(http.Handler), url string) {
	t.Helper()
	var h atomic.Value
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler, _ := h.Load().(http.Handler)
		if handler == nil {
			http.Error(w, "not up yet", http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return func(handler http.Handler) { h.Store(handler) }, hs.URL
}

func newShardNode(t *testing.T, doc, shardID string, setHandler func(http.Handler)) *session.Manager {
	t.Helper()
	fleet, err := cluster.ParseFleet(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	view, err := cluster.NewNodeView(fleet, shardID)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := session.NewManager(shardSpec(8), session.Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	setHandler(server.NewWithSessions(mgr, "salary", server.WithCluster(view)))
	return mgr
}

// TestRouterRebalanceScaleOut grows a one-shard fleet to two shards
// through POST /v1/cluster/rebalance and verifies the tentpole's whole
// promise end to end: sessions whose owner changes are shipped with
// their exact journal position, the old shard keeps nothing it no
// longer owns, the fleet keeps answering through the router afterwards,
// and a second identical rebalance is a no-op.
func TestRouterRebalanceScaleOut(t *testing.T) {
	setA, urlA := lateServer(t)
	setB, urlB := lateServer(t)
	oneShard := fmt.Sprintf(`{"shards": [{"id": "shard-a", "primary": %q}]}`, urlA)
	twoShards := fmt.Sprintf(`{"shards": [
		{"id": "shard-a", "primary": %q},
		{"id": "shard-b", "primary": %q}
	]}`, urlA, urlB)

	mgrA := newShardNode(t, oneShard, "shard-a", setA)
	// The new node boots already holding the target descriptor, as a
	// freshly provisioned shard would.
	mgrB := newShardNode(t, twoShards, "shard-b", setB)
	rt := quietRouter(t, oneShard)

	// Seed sessions through the router: all land on shard-a.
	analysts := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	for _, a := range analysts {
		for i := 0; i < 3; i++ {
			if rec := postQueryVia(t, rt, a); rec.Code != http.StatusOK {
				t.Fatalf("seeding %s: %d %s", a, rec.Code, rec.Body)
			}
		}
	}
	// The server also tracks the shared default session; it migrates like
	// any other analyst, so include it in the accounting.
	tracked := append([]string{}, analysts...)
	tracked = append(tracked, session.DefaultAnalyst)
	seqBefore := map[string]uint64{}
	for _, a := range tracked {
		seq, ok := mgrA.SeqOf(a)
		if !ok {
			t.Fatalf("analyst %s has no session on shard-a before rebalance", a)
		}
		seqBefore[a] = seq
	}

	rebalance := func() rebalanceResponse {
		body, _ := json.Marshal(cluster.ConfigRequest{Fleet: json.RawMessage(twoShards)})
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/rebalance", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("rebalance: %d %s", rec.Code, rec.Body)
		}
		var rr rebalanceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}

	target, _ := cluster.ParseFleet(strings.NewReader(twoShards))
	wantMoved := 0
	for _, a := range tracked {
		owner, _ := target.Owner(a)
		if owner.ID == "shard-b" {
			wantMoved++
		}
	}
	if wantMoved == 0 {
		t.Fatal("degenerate fixture: no analyst moves to the new shard")
	}

	rr := rebalance()
	if len(rr.Failures) > 0 {
		t.Fatalf("rebalance failures: %v", rr.Failures)
	}
	if rr.Moved != wantMoved {
		t.Fatalf("moved %d sessions, ring says %d change owner", rr.Moved, wantMoved)
	}

	// Every migrated session is at its exact pre-migration position on
	// the new owner, and gone from the old one.
	for _, a := range tracked {
		owner, _ := target.Owner(a)
		if owner.ID == "shard-a" {
			if seq, ok := mgrA.SeqOf(a); !ok || seq != seqBefore[a] {
				t.Fatalf("unmoved analyst %s: (seq %d, %v), want %d on shard-a", a, seq, ok, seqBefore[a])
			}
			continue
		}
		if seq, ok := mgrB.SeqOf(a); !ok || seq != seqBefore[a] {
			t.Fatalf("moved analyst %s: (seq %d, %v) on shard-b, want %d", a, seq, ok, seqBefore[a])
		}
		if _, ok := mgrA.SeqOf(a); ok {
			t.Fatalf("moved analyst %s still has a session on shard-a", a)
		}
	}

	// The fleet keeps answering through the router, each analyst on its
	// new owner.
	for _, a := range analysts {
		owner, _ := target.Owner(a)
		rec := postQueryVia(t, rt, a)
		if rec.Code != http.StatusOK {
			t.Fatalf("post-rebalance query for %s: %d %s", a, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Shard-ID"); got != owner.ID {
			t.Fatalf("post-rebalance %s answered by %s, want %s", a, got, owner.ID)
		}
	}

	// Idempotence: the same descriptor again moves nothing.
	if rr := rebalance(); rr.Moved != 0 || len(rr.Failures) > 0 {
		t.Fatalf("second rebalance: %+v, want no moves and no failures", rr)
	}
}

// failingBody yields some bytes, then an error, simulating an upstream
// replica dying mid-response.
type failingBody struct {
	data string
	read bool
}

func (f *failingBody) Read(p []byte) (int, error) {
	if !f.read {
		f.read = true
		return copy(p, f.data), nil
	}
	return 0, io.ErrUnexpectedEOF
}

func (f *failingBody) Close() error { return nil }

// copyResponse used to swallow mid-stream copy errors, relaying a
// truncated body under a clean 200 (errsink finding). It must now abort
// the handler so the client sees a broken connection it can retry.
func TestCopyResponseAbortsOnTruncatedUpstream(t *testing.T) {
	rec := httptest.NewRecorder()
	resp := &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       &failingBody{data: `{"partial":`},
	}
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
		}
	}()
	copyResponse(rec, resp)
	t.Fatal("copyResponse returned normally on a truncated upstream body")
}

func TestCopyResponseRelaysIntactUpstream(t *testing.T) {
	rec := httptest.NewRecorder()
	resp := &http.Response{
		StatusCode: http.StatusAccepted,
		Header:     http.Header{"X-Shard-ID": {"s1"}},
		Body:       io.NopCloser(strings.NewReader("whole body")),
	}
	copyResponse(rec, resp)
	if rec.Code != http.StatusAccepted || rec.Body.String() != "whole body" {
		t.Fatalf("relayed %d %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Shard-ID"); got != "s1" {
		t.Fatalf("X-Shard-ID = %q, want s1", got)
	}
}
