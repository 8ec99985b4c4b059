package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"queryaudit/internal/cluster"
	"queryaudit/internal/metrics"
	"queryaudit/internal/server"
)

// router is the stateless routing tier: it holds no session state, only
// the fleet descriptor and per-shard liveness bookkeeping, so any number
// of router processes can run side by side and agree on placement (the
// ring is a pure function of the descriptor). Time-dependent logic —
// the circuit breaker, retry pacing — lives here and NOT in
// internal/cluster, which stays deterministic for auditlint.
type router struct {
	logger *log.Logger
	client *http.Client
	reg    *metrics.Registry
	m      *metrics.ClusterRouterMetrics
	mig    *cluster.Migrator

	maxBody         int64
	breakerFailures int
	breakerCooldown time.Duration

	// mu guards the routing view (fleet, ring, shards). Swapped wholesale
	// by rebalance; per-request reads take the read lock only long enough
	// to resolve a shard.
	mu     sync.RWMutex
	fleet  *cluster.Fleet
	ring   *cluster.Ring
	shards map[string]*shardState // auditlint:guardedby(mu)

	// rebalanceMu serializes rebalances (one topology change at a time).
	rebalanceMu sync.Mutex

	mux http.Handler
}

// shardState is the router's liveness view of one shard pair: which
// member URL requests currently go to, and the consecutive-failure
// count driving the primary→replica circuit breaker.
type shardState struct {
	spec cluster.ShardSpec

	mu          sync.Mutex
	active      string    // auditlint:guardedby(mu)
	fails       int       // auditlint:guardedby(mu)
	brokenUntil time.Time // auditlint:guardedby(mu)
}

func newShardState(spec cluster.ShardSpec) *shardState {
	return &shardState{spec: spec, active: spec.Primary}
}

// pick returns the URL the next request should target. Once the breaker
// cooldown elapses the primary is probed again (half-open): a healthy
// primary resumes service, a still-dead one re-trips after the
// configured failures.
func (st *shardState) pick(now time.Time) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.active != st.spec.Primary && !st.brokenUntil.IsZero() && now.After(st.brokenUntil) {
		st.active = st.spec.Primary
		st.fails = 0
		st.brokenUntil = time.Time{}
	}
	return st.active
}

// reportFailure records one transport failure against url. When the
// consecutive count reaches the threshold on the primary and a replica
// exists, the breaker trips: the active URL flips to the replica for at
// least cooldown. Returns the replacement URL when it flipped.
func (st *shardState) reportFailure(url string, threshold int, cooldown time.Duration, now time.Time) (string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.active != url {
		return "", false // a concurrent request already moved on
	}
	st.fails++
	if st.fails >= threshold && st.spec.Replica != "" && st.active == st.spec.Primary {
		st.active = st.spec.Replica
		st.fails = 0
		st.brokenUntil = now.Add(cooldown)
		return st.active, true
	}
	return "", false
}

// reportSuccess clears the failure count after a response from url.
func (st *shardState) reportSuccess(url string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.active == url {
		st.fails = 0
	}
}

// setActive adopts a member URL learned from a same-shard 421 (a
// promoted replica naming itself, or a demoted primary naming its
// successor): believe the shard pair over our own guess.
func (st *shardState) setActive(url string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.active = url
	st.fails = 0
	st.brokenUntil = time.Time{}
}

// view reports the state for the status endpoint.
func (st *shardState) view(now time.Time) (active string, breakerOpen bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	open := st.active != st.spec.Primary && now.Before(st.brokenUntil)
	return st.active, open
}

type routerConfig struct {
	Logger          *log.Logger
	MaxBodyBytes    int64
	BreakerFailures int
	BreakerCooldown time.Duration
	RequestTimeout  time.Duration
	MigrateRetries  int
}

func newRouter(fleet *cluster.Fleet, cfg routerConfig) (*router, error) {
	ring, err := fleet.Ring()
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: cfg.RequestTimeout}
	reg := metrics.NewRegistry()
	shards := make(map[string]*shardState, len(fleet.Shards))
	for _, spec := range fleet.Shards {
		shards[spec.ID] = newShardState(spec)
	}
	rt := &router{
		logger:          cfg.Logger,
		client:          client,
		reg:             reg,
		m:               metrics.NewClusterRouterMetrics(reg),
		mig:             cluster.NewMigrator(client, cfg.MigrateRetries),
		maxBody:         cfg.MaxBodyBytes,
		breakerFailures: cfg.BreakerFailures,
		breakerCooldown: cfg.BreakerCooldown,
		fleet:           fleet,
		ring:            ring,
		shards:          shards,
	}
	rt.m.RegisterShards(fleet.ShardIDs())

	mux := http.NewServeMux()
	// Analyst-scoped endpoints: hash to the owning shard.
	mux.HandleFunc("POST /v1/query", rt.handleAnalyst)
	mux.HandleFunc("POST /v1/queryset", rt.handleAnalyst)
	mux.HandleFunc("POST /v1/prime", rt.handleAnalyst)
	mux.HandleFunc("GET /v1/stats", rt.handleAnalyst)
	mux.HandleFunc("GET /v1/knowledge", rt.handleAnalyst)
	// Dataset-scoped: every shard audits the same table, so an update
	// must land everywhere or the fleet's synopses diverge.
	mux.HandleFunc("POST /v1/update", rt.handleUpdate)
	// Fan-in reads and router-local endpoints.
	mux.HandleFunc("GET /v1/schema", rt.handleSchema)
	mux.HandleFunc("GET /v1/sessions", rt.handleSessions)
	mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	mux.HandleFunc("POST /v1/cluster/rebalance", rt.handleRebalance)
	mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleHealthz)
	rt.mux = mux
	return rt, nil
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *router) now() time.Time { return time.Now() }

// ownerState resolves the shard owning analyst under the current ring.
func (rt *router) ownerState(analyst string) (*shardState, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	id := rt.ring.Owner(analyst)
	st, ok := rt.shards[id]
	if !ok {
		return nil, fmt.Errorf("ring owner %q not in shard table", id)
	}
	return st, nil
}

// snapshotShards returns the shard states in sorted-ID order.
func (rt *router) snapshotShards() []*shardState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*shardState, 0, len(rt.shards))
	for _, st := range rt.shards {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.ID < out[j].spec.ID })
	return out
}

type errorResponse struct {
	Error string `json:"error"`
}

func (rt *router) writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) //auditlint:allow errsink client disconnect mid-response is the client's failure to retry, not router state
}

// bufferBody reads the request body so it can be replayed on a retry
// (the breaker flip and the 421 follow both re-send it).
func (rt *router) bufferBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.maxBody+1))
	if err != nil {
		rt.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "reading request body: " + err.Error()})
		return nil, false
	}
	if int64(len(body)) > rt.maxBody {
		rt.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "request body too large"})
		return nil, false
	}
	return body, true
}

// do performs one upstream round trip. Only the headers the shards act
// on are forwarded; hop-by-hop headers stay at the router.
func (rt *router) do(r *http.Request, base, pathAndQuery string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, strings.TrimSuffix(base, "/")+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"X-Analyst-ID", "Content-Type", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return rt.client.Do(req)
}

// handleAnalyst forwards one analyst-scoped request to its owning
// shard, relaying the response verbatim (denials included — a denial is
// a 200 with "denied": true, an auditor decision, not a proxy failure).
func (rt *router) handleAnalyst(w http.ResponseWriter, r *http.Request) {
	analyst, err := server.AnalystID(r)
	if err != nil {
		rt.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	body, ok := rt.bufferBody(w, r)
	if !ok {
		return
	}
	st, err := rt.ownerState(analyst)
	if err != nil {
		rt.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	rt.relay(w, r, st, body, true)
}

// relay sends the buffered request to the shard, following at most one
// breaker failover and one 421 redirect:
//
//   - transport failure → report to the breaker; if it trips, retry once
//     on the replica.
//   - 421 naming OUR shard → a role fence inside the pair (the member we
//     hit is not the primary). Adopt the named primary as the shard's
//     active URL and retry once — this is how the router converges after
//     a promotion it did not witness.
//   - 421 naming ANOTHER shard → ownership moved (mid-rebalance window).
//     Follow the named primary for one hop without touching our view;
//     the descriptor push that follows the migration corrects the ring.
func (rt *router) relay(w http.ResponseWriter, r *http.Request, st *shardState, body []byte, followOwnership bool) {
	pathAndQuery := r.URL.Path
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	url := st.pick(rt.now())
	var hopped, flipped bool
	for {
		resp, err := rt.do(r, url, pathAndQuery, body)
		if err != nil {
			if next, tripped := st.reportFailure(url, rt.breakerFailures, rt.breakerCooldown, rt.now()); tripped && !flipped {
				flipped = true
				rt.m.BreakerTrips.Inc()
				rt.m.Failovers.Inc()
				rt.logger.Printf("shard %s: breaker tripped on %s, failing over to %s", st.spec.ID, url, next)
				url = next
				continue
			}
			rt.m.ProxyErrors.Inc()
			rt.writeJSON(w, http.StatusBadGateway, errorResponse{
				Error: "shard " + st.spec.ID + " unreachable: " + err.Error(),
			})
			return
		}
		if resp.StatusCode == http.StatusMisdirectedRequest && !hopped {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			var mb cluster.MisdirectedBody
			if json.Unmarshal(raw, &mb) == nil && mb.PrimaryURL != "" {
				hopped = true
				rt.m.Retried421.Inc()
				if mb.Shard == "" || mb.Shard == st.spec.ID {
					st.setActive(mb.PrimaryURL)
					url = mb.PrimaryURL
					continue
				}
				if followOwnership {
					url = mb.PrimaryURL
					continue
				}
			}
			// Unfollowable (or second) 421: relay it for the client.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			_, _ = w.Write(raw) //auditlint:allow errsink relaying an upstream 421 body; a client disconnect here loses only the error detail
			return
		}
		st.reportSuccess(url)
		shard := resp.Header.Get("X-Shard-ID")
		if shard == "" {
			shard = st.spec.ID
		}
		rt.m.ObserveRouted(shard)
		copyResponse(w, resp)
		return
	}
}

// copyResponse relays an upstream response verbatim. If the upstream
// body breaks mid-stream the handler is aborted so the client sees a
// broken connection, not a clean EOF: a silently truncated audit
// response (a partial decision list, half a snapshot) is worse than an
// error the client can retry.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// shardCall is relay without a ResponseWriter: one shard round trip
// with the same breaker and same-shard-421 handling, for fan-out and
// fan-in endpoints. The caller owns the returned response body.
func (rt *router) shardCall(r *http.Request, st *shardState, pathAndQuery string, body []byte) (*http.Response, error) {
	url := st.pick(rt.now())
	var hopped, flipped bool
	for {
		resp, err := rt.do(r, url, pathAndQuery, body)
		if err != nil {
			if next, tripped := st.reportFailure(url, rt.breakerFailures, rt.breakerCooldown, rt.now()); tripped && !flipped {
				flipped = true
				rt.m.BreakerTrips.Inc()
				rt.m.Failovers.Inc()
				rt.logger.Printf("shard %s: breaker tripped on %s, failing over to %s", st.spec.ID, url, next)
				url = next
				continue
			}
			return nil, fmt.Errorf("shard %s unreachable: %w", st.spec.ID, err)
		}
		if resp.StatusCode == http.StatusMisdirectedRequest && !hopped {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			var mb cluster.MisdirectedBody
			if json.Unmarshal(raw, &mb) == nil && mb.PrimaryURL != "" && (mb.Shard == "" || mb.Shard == st.spec.ID) {
				hopped = true
				rt.m.Retried421.Inc()
				st.setActive(mb.PrimaryURL)
				url = mb.PrimaryURL
				continue
			}
			return nil, fmt.Errorf("shard %s: misdirected: %s", st.spec.ID, bytes.TrimSpace(raw))
		}
		st.reportSuccess(url)
		return resp, nil
	}
}

// handleUpdate broadcasts a dataset update to every shard. Updates are
// idempotent (set record i to v), so a partial failure is reported and
// safely retried by the client.
func (rt *router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.bufferBody(w, r)
	if !ok {
		return
	}
	rt.m.Broadcasts.Inc()
	var failures []string
	for _, st := range rt.snapshotShards() {
		resp, err := rt.shardCall(r, st, "/v1/update", body)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			failures = append(failures, fmt.Sprintf("shard %s: %s: %s", st.spec.ID, resp.Status, bytes.TrimSpace(raw)))
		}
	}
	if len(failures) > 0 {
		rt.m.ProxyErrors.Inc()
		rt.writeJSON(w, http.StatusBadGateway, errorResponse{
			Error: "update incomplete (retry it): " + strings.Join(failures, "; "),
		})
		return
	}
	rt.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleSchema proxies the schema from the first shard: every shard
// serves the same table, so any member's answer is the fleet's.
func (rt *router) handleSchema(w http.ResponseWriter, r *http.Request) {
	shards := rt.snapshotShards()
	if len(shards) == 0 {
		rt.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no shards configured"})
		return
	}
	rt.relay(w, r, shards[0], nil, false)
}

// fleetSessions is the router's GET /v1/sessions: the per-shard session
// listings plus fleet totals.
type fleetSessions struct {
	Live    int                                `json:"live"`
	Tracked int                                `json:"tracked"`
	Shards  map[string]server.SessionsResponse `json:"shards"`
	Errors  []string                           `json:"errors,omitempty"`
}

func (rt *router) handleSessions(w http.ResponseWriter, r *http.Request) {
	out := fleetSessions{Shards: make(map[string]server.SessionsResponse)}
	for _, st := range rt.snapshotShards() {
		resp, err := rt.shardCall(r, st, "/v1/sessions", nil)
		if err != nil {
			out.Errors = append(out.Errors, err.Error())
			continue
		}
		var sr server.SessionsResponse
		derr := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&sr)
		resp.Body.Close()
		if derr != nil {
			out.Errors = append(out.Errors, "shard "+st.spec.ID+": "+derr.Error())
			continue
		}
		out.Live += sr.Live
		out.Tracked += sr.Tracked
		out.Shards[st.spec.ID] = sr
	}
	rt.writeJSON(w, http.StatusOK, out)
}

func (rt *router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		// Buffer-first, as in the server: a render failure is a clean
		// 500, never a torn 200 the scraper ingests as a partial set.
		var buf bytes.Buffer
		if err := metrics.WritePrometheus(&buf, rt.reg.Snapshot()); err != nil {
			http.Error(w, "metrics render failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", metrics.PrometheusContentType)
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf.Bytes()) //auditlint:allow errsink a failed scrape write is the scraper's disconnect; nothing durable depends on it
		return
	}
	rt.writeJSON(w, http.StatusOK, rt.reg.Snapshot())
}

// handleHealthz doubles as readiness: the router is stateless, so once
// the descriptor parsed at boot it is both alive and ready.
func (rt *router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rt.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
