// Package server exposes an audited statistical database over HTTP with
// a small JSON API — the deployment shape the paper's introduction
// implies (a census-bureau-style service answering aggregate statistics
// while refusing privacy-compromising combinations).
//
//	POST /v1/query    {"sql": "SELECT sum(salary) WHERE age >= 40"}
//	POST /v1/queryset {"kind": "max", "indices": [0, 3, 7]}
//	POST /v1/update   {"index": 3, "value": 81000}
//	POST /v1/prime    {"queries": [{"kind": "sum", "indices": [...]}]}
//	GET  /v1/stats
//	GET  /v1/schema
//	GET  /v1/knowledge
//	GET  /v1/sessions
//	GET  /v1/metrics
//	GET  /healthz
//	GET  /readyz
//
// Denials are HTTP 200 with {"denied": true} — a denial is a normal
// protocol outcome, not a transport error. Malformed requests are 400;
// unsupported aggregates are 422; oversized bodies or index lists are
// 413; a throttled client is 429; a refused session admission is 503
// with Retry-After.
//
// # Analyst identity
//
// The paper's compromise definitions are per-adversary: each analyst's
// history is what can breach privacy, so the server keys audit state by
// analyst. Requests name their analyst with the X-Analyst-ID header (or
// the ?analyst= query parameter); requests carrying neither run in the
// shared "default" session, which keeps single-analyst clients working
// unchanged. Every session-scoped endpoint (query, queryset, prime,
// stats, knowledge) honors the identity; /v1/update mutates the shared
// dataset and is visible to every session.
//
// # Production hygiene
//
// Every POST body is capped by http.MaxBytesReader (Options.MaxBodyBytes,
// default 1 MiB), and /v1/queryset and /v1/prime additionally bound the
// number of indices / queries they accept (Options.MaxIndices,
// Options.MaxPrimeQueries), so a single request cannot hold an engine
// lock arbitrarily long. Run installs read/write/idle timeouts on the
// http.Server and drains in-flight requests on context cancellation.
// All handlers run behind middleware that records per-route counters
// and latency histograms into a metrics.Registry (exported at GET
// /v1/metrics) and, when Options.AccessLog is set, writes one
// structured line per request. An optional per-client
// concurrency limiter (Options.PerClientConcurrency) bounds how many
// requests one client may have in flight.
//
// Concurrency correctness is delegated to the session manager's locking
// discipline (dataset lock → shard lock → session lock) and, below it,
// core.Engine's: handlers only touch audit state through the manager's
// locked methods and never reach around it to an engine or auditor.
//
// # Readiness
//
// GET /healthz is pure liveness: the process is up and the mux serves.
// GET /readyz additionally reflects boot-time state restoration: a
// server constructed with WithReadinessGate answers 503 on /readyz and
// on every session-scoped endpoint until MarkReady is called (after
// session-log replay finishes), so a load balancer never
// routes an analyst to a server that has not finished reconstructing
// audit state — answering before replay completes would let an attacker
// rerun complementary queries against an amnesiac auditor.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"queryaudit/internal/audit"
	"queryaudit/internal/core"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/replica"
	"queryaudit/internal/session"
)

// retryAfterSeconds is the Retry-After hint attached to 503 responses
// (session admission refused, or server not yet ready).
const retryAfterSeconds = 10

// maxAnalystIDLen bounds the analyst identity accepted from headers.
const maxAnalystIDLen = 128

// Server routes HTTP requests to per-analyst audit sessions. All
// concurrency safety is delegated to the session.Manager.
type Server struct {
	mgr       *session.Manager
	sensitive string
	// sqlRes resolves /v1/query statements through the deployment's
	// shared indexed resolver (memoized statements, interned sets).
	sqlRes  *core.SQLResolver
	mux     *http.ServeMux
	handler http.Handler // mux behind the middleware chain
	opts    Options
	reg     *metrics.Registry
	httpM   *httpMetrics
	limiter *clientLimiter
	// repl, when set, makes role and quarantine part of request routing:
	// writes are fenced to the primary, divergent sessions answer 503.
	repl *replica.Node
	// ready gates the session-scoped endpoints; it starts true unless
	// WithReadinessGate is given, and flips once via MarkReady.
	ready atomic.Bool
	gated bool
}

// NewWithSessions builds a server over a session manager. Engine
// collectors and Monte Carlo settings come from the manager's
// core.EngineSpec, which installs them as each engine is built.
func NewWithSessions(mgr *session.Manager, sensitive string, opts ...Option) *Server {
	s := &Server{mgr: mgr, sensitive: sensitive, mux: http.NewServeMux(), opts: Defaults()}
	for _, o := range opts {
		o(s)
	}
	s.ready.Store(!s.gated)
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	s.httpM = newHTTPMetrics(s.reg)
	if s.opts.PerClientConcurrency > 0 {
		s.limiter = newClientLimiter(s.opts.PerClientConcurrency)
	}
	qr := mgr.Resolver()
	qr.SetObserver(metrics.NewQIndexCollector(s.reg))
	s.sqlRes = core.NewSQLResolver(qr)
	s.mux.HandleFunc("POST /v1/query", s.whenReady(s.writable(s.handleQuery)))
	s.mux.HandleFunc("POST /v1/queryset", s.whenReady(s.writable(s.handleQuerySet)))
	s.mux.HandleFunc("POST /v1/update", s.whenReady(s.writable(s.handleUpdate)))
	s.mux.HandleFunc("GET /v1/stats", s.whenReady(s.handleStats))
	s.mux.HandleFunc("GET /v1/journal", s.whenReady(s.handleJournal))
	s.mux.HandleFunc("GET /v1/schema", s.handleSchema)
	s.mux.HandleFunc("GET /v1/knowledge", s.whenReady(s.handleKnowledge))
	s.mux.HandleFunc("POST /v1/prime", s.whenReady(s.writable(s.handlePrime)))
	s.mux.HandleFunc("GET /v1/sessions", s.whenReady(s.handleSessions))
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.repl != nil {
		s.mux.Handle("/v1/replication/", s.repl.Handler())
	}
	s.handler = s.middleware(s.mux)
	return s
}

// writable wraps a state-mutating handler with the replication role
// gate: on a node that is not the primary the request is
// misdirected (421) and the response names the primary, so a client (or
// proxy) can follow. Non-replicated servers pass through untouched.
//
// The gate exists because a replica answering a query would FORK the
// audit timeline: its auditor would commit a decision the primary never
// journaled, and every digest after that point would diverge. Reads
// (stats, knowledge, sessions) stay open — serving them from replayed
// state is the whole point of a read replica.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.repl != nil && !s.repl.Writable() {
			s.writeJSON(w, http.StatusMisdirectedRequest, replicaErrorResponse{
				Error:      "this node is a read-only replica; direct writes to the primary",
				Role:       s.repl.Role().String(),
				Epoch:      s.repl.Epoch(),
				PrimaryURL: s.repl.PrimaryURL(),
			})
			return
		}
		h(w, r)
	}
}

// Metrics returns the registry the server records into.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Sessions returns the session manager the server routes through.
func (s *Server) Sessions() *session.Manager { return s.mgr }

// Resolver returns the SQL resolution front-end /v1/query routes
// through.
func (s *Server) Resolver() *core.SQLResolver { return s.sqlRes }

// MarkReady opens the session-scoped endpoints on a readiness-gated
// server. Call it once boot-time state restoration (session-log replay)
// has finished.
func (s *Server) MarkReady() { s.ready.Store(true) }

// whenReady wraps a session-scoped handler with the readiness gate.
func (s *Server) whenReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is restoring audit state"})
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler (middleware included).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// AnalystID extracts the analyst identity: X-Analyst-ID header first,
// then the ?analyst= query parameter, else the shared default session.
// IDs are capped at 128 bytes of printable ASCII so arbitrary header
// bytes never become map keys or log lines.
func AnalystID(r *http.Request) (string, error) {
	a := r.Header.Get("X-Analyst-ID")
	if a == "" {
		a = r.URL.Query().Get("analyst")
	}
	if a == "" {
		return session.DefaultAnalyst, nil
	}
	if len(a) > maxAnalystIDLen {
		return "", errors.New("analyst id longer than " + strconv.Itoa(maxAnalystIDLen) + " bytes")
	}
	for i := 0; i < len(a); i++ {
		if a[i] < 0x21 || a[i] > 0x7e {
			return "", errors.New("analyst id must be printable ASCII without spaces")
		}
	}
	return a, nil
}

// analyst resolves the request identity, writing the 400 itself on a
// malformed ID; ok reports whether the handler should proceed. On a
// replicated node a quarantined session (replication divergence was
// detected for it) answers 503: its replayed state provably differs from
// the primary's, so any answer would come from a forged timeline.
func (s *Server) analyst(w http.ResponseWriter, r *http.Request) (string, bool) {
	a, err := AnalystID(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return "", false
	}
	if s.repl != nil {
		if reason, bad := s.repl.Quarantined(a); bad {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error: "session quarantined after replication divergence: " + reason})
			return "", false
		}
	}
	return a, true
}

// writeSessionErr maps a refused session admission to 503; reports
// whether err was one.
func (s *Server) writeSessionErr(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, session.ErrTooManySessions) {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	return true
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	SQL string `json:"sql"`
}

// QuerySetRequest is the body of POST /v1/queryset: an explicit query
// set, for clients that resolve predicates themselves.
type QuerySetRequest struct {
	Kind    string `json:"kind"`
	Indices []int  `json:"indices"`
}

// QueryResponse is the body of query responses. Answer is a pointer so
// a legitimate answer of exactly 0 is serialized as {"denied":false,
// "answer":0} rather than silently omitted; on denials the field is
// absent.
type QueryResponse struct {
	Denied bool     `json:"denied"`
	Answer *float64 `json:"answer,omitempty"`
}

// UpdateRequest is the body of POST /v1/update.
type UpdateRequest struct {
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

// StatsResponse is the body of GET /v1/stats, scoped to the requesting
// analyst's session. Answered+denied come from the session journal's
// running tallies in one lock acquisition, never a torn snapshot.
type StatsResponse struct {
	Analyst       string `json:"analyst"`
	Answered      int    `json:"answered"`
	Denied        int    `json:"denied"`
	Records       int    `json:"records"`
	Modifications int    `json:"modifications"`
	Live          bool   `json:"live"`
	LogEvents     int    `json:"log_events"`
}

// errorResponse carries machine-readable failures.
type errorResponse struct {
	Error string `json:"error"`
}

// replicaErrorResponse carries a role-aware refusal (421) with enough
// context for the caller to find the primary.
type replicaErrorResponse struct {
	Error      string `json:"error"`
	Role       string `json:"role"`
	Epoch      uint64 `json:"epoch"`
	PrimaryURL string `json:"primary_url,omitempty"`
}

// encodeBufs pools response-encoding buffers for the hot Ask/batch path:
// a query answer is a few dozen bytes, so reusing buffers removes the
// per-response bytes.Buffer and encoder-state allocations.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledEncodeBuf keeps one oversized response (a knowledge snapshot,
// a full session listing) from pinning a large buffer in the pool.
const maxPooledEncodeBuf = 64 << 10

// writeJSON encodes v into a pooled buffer BEFORE writing the status
// line, so an encode failure (a NaN that reached a float field, a
// marshaler error) surfaces as a logged, counted 500 instead of a torn
// 200 body. Client-side write failures (peer gone mid-response) remain
// ignored — they are the client's disconnect, not a server fault.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	err := json.NewEncoder(buf).Encode(v)
	if err != nil {
		s.httpM.encodeFail.Inc()
		s.logf("response encode failed: status=%d type=%T err=%v", status, v, err)
		encodeBufs.Put(buf)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"internal error encoding response"}` + "\n")) //auditlint:allow errsink client disconnect on the error path; the failure is already counted and logged
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) //auditlint:allow errsink client disconnect mid-response is the peer's failure; Content-Length lets it detect the truncation
	if buf.Cap() <= maxPooledEncodeBuf {
		encodeBufs.Put(buf)
	}
}

// logf writes one server-fault line to the access logger when one is
// configured, else the process logger — encode failures must not be
// silent just because access logging is off.
func (s *Server) logf(format string, args ...any) {
	if s.opts.AccessLog != nil {
		s.opts.AccessLog.Printf(format, args...)
		return
	}
	log.Printf("server: "+format, args...)
}

// decodeBody decodes a JSON body capped at MaxBodyBytes. It reports
// oversized bodies distinctly so the caller can 413 instead of 400.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok, tooLarge bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true, false
	}
	var mbe *http.MaxBytesError
	return false, errors.As(err, &mbe)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	analyst, ok := s.analyst(w, r)
	if !ok {
		return
	}
	var req QueryRequest
	ok, tooLarge := s.decodeBody(w, r, &req)
	if tooLarge {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "request body too large"})
		return
	}
	if !ok || req.SQL == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be {\"sql\": \"SELECT ...\"}"})
		return
	}
	// Resolve once through the shared resolver, then route the interned
	// set to the analyst's engine: statement parsing and predicate
	// resolution are paid per unique statement, not per request.
	q, err := s.sqlRes.ResolveSQL(s.sensitive, req.SQL)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	resp, err := s.mgr.Ask(analyst, q)
	s.writeQueryResult(w, resp, err)
}

func (s *Server) handleQuerySet(w http.ResponseWriter, r *http.Request) {
	analyst, ok := s.analyst(w, r)
	if !ok {
		return
	}
	var req QuerySetRequest
	ok, tooLarge := s.decodeBody(w, r, &req)
	if tooLarge {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "request body too large"})
		return
	}
	if !ok {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be {\"kind\": ..., \"indices\": [...]}"})
		return
	}
	if len(req.Indices) > s.opts.MaxIndices {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: "too many indices (limit " + strconv.Itoa(s.opts.MaxIndices) + ")"})
		return
	}
	kind, err := query.ParseKind(req.Kind)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Interning the explicit set means a client that resolves predicates
	// itself still shares canonical sets with the SQL path (and with
	// every other session asking about the same rows).
	q := query.New(kind, req.Indices...)
	q.Set = s.sqlRes.Intern(q.Set)
	resp, err := s.mgr.Ask(analyst, q)
	s.writeQueryResult(w, resp, err)
}

func (s *Server) writeQueryResult(w http.ResponseWriter, resp core.Response, err error) {
	switch {
	case err != nil && s.writeSessionErr(w, err):
	case errors.Is(err, core.ErrNoAuditor) || errors.Is(err, audit.ErrUnsupportedKind):
		s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
	case err != nil:
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case resp.Denied:
		s.writeJSON(w, http.StatusOK, QueryResponse{Denied: true})
	default:
		ans := resp.Answer
		s.writeJSON(w, http.StatusOK, QueryResponse{Answer: &ans})
	}
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	ok, tooLarge := s.decodeBody(w, r, &req)
	if tooLarge {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "request body too large"})
		return
	}
	if !ok {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be {\"index\": i, \"value\": v}"})
		return
	}
	if err := s.mgr.Update(req.Index, req.Value); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	analyst, ok := s.analyst(w, r)
	if !ok {
		return
	}
	st := s.mgr.Stats(analyst)
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Analyst:       st.Analyst,
		Answered:      st.Answered,
		Denied:        st.Denied,
		Records:       st.Records,
		Modifications: st.Modifications,
		Live:          st.Live,
		LogEvents:     st.LogEvents,
	})
}

// handleJournal exports the requesting analyst's session journal — a
// digest-chained session.LogSnapshot — so the retrospective pipeline
// (cmd/auditreport) can ingest from any live server. The snapshot is self-verifying: auditreport recomputes the
// digest chain before replaying a single event.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	analyst, ok := s.analyst(w, r)
	if !ok {
		return
	}
	snap, ok := s.mgr.Export(analyst)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "no session for analyst " + analyst})
		return
	}
	if snap.Events == nil {
		// A journal is a JSON array of events even when empty; null would
		// make the export indistinguishable from a non-journal document.
		snap.Events = []session.EventSnapshot{}
	}
	s.writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	ds := s.mgr.Dataset()
	type attr struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}
	var attrs []attr
	for _, a := range ds.Schema() {
		k := "numeric"
		if a.Kind != 0 {
			k = "categorical"
		}
		attrs = append(attrs, attr{Name: a.Name, Kind: k})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"records":    ds.N(),
		"attributes": attrs,
	})
}

// PrimeRequest is the body of POST /v1/prime: "important" queries to
// answer up front so they stay answerable forever (the paper's Section 7
// remedy). The whole list runs under one engine lock acquisition, so
// user queries cannot interleave mid-prime; a denial mid-list leaves
// earlier primes committed and reports the offender with 409.
type PrimeRequest struct {
	Queries []QuerySetRequest `json:"queries"`
}

func (s *Server) handlePrime(w http.ResponseWriter, r *http.Request) {
	analyst, ok := s.analyst(w, r)
	if !ok {
		return
	}
	var req PrimeRequest
	ok, tooLarge := s.decodeBody(w, r, &req)
	if tooLarge {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "request body too large"})
		return
	}
	if !ok || len(req.Queries) == 0 {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be {\"queries\": [{\"kind\":...,\"indices\":[...]}, ...]}"})
		return
	}
	if len(req.Queries) > s.opts.MaxPrimeQueries {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: "too many prime queries (limit " + strconv.Itoa(s.opts.MaxPrimeQueries) + ")"})
		return
	}
	var qs []query.Query
	for _, q := range req.Queries {
		if len(q.Indices) > s.opts.MaxIndices {
			s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: "too many indices (limit " + strconv.Itoa(s.opts.MaxIndices) + ")"})
			return
		}
		kind, err := query.ParseKind(q.Kind)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		pq := query.New(kind, q.Indices...)
		pq.Set = s.sqlRes.Intern(pq.Set)
		qs = append(qs, pq)
	}
	if err := s.mgr.Prime(analyst, qs); err != nil {
		if s.writeSessionErr(w, err) {
			return
		}
		s.writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true, "primed": len(qs)})
}

// KnowledgeResponse is the body of GET /v1/knowledge: what the
// requesting analyst's answered history exposes about each record, per
// reporting auditor.
type KnowledgeResponse struct {
	Analyst  string                              `json:"analyst"`
	Auditors map[string][]audit.ElementKnowledge `json:"auditors"`
}

func (s *Server) handleKnowledge(w http.ResponseWriter, r *http.Request) {
	analyst, ok := s.analyst(w, r)
	if !ok {
		return
	}
	snap, err := s.mgr.Knowledge(analyst)
	if err != nil {
		if s.writeSessionErr(w, err) {
			return
		}
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	out := KnowledgeResponse{Analyst: analyst, Auditors: make(map[string][]audit.ElementKnowledge, len(snap))}
	for name, ks := range snap {
		out.Auditors[name] = sanitizeKnowledge(ks)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// SessionsResponse is the body of GET /v1/sessions: the admin view of
// every tracked session.
type SessionsResponse struct {
	Sessions []session.Info `json:"sessions"`
	Live     int            `json:"live"`
	Tracked  int            `json:"tracked"`
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, SessionsResponse{
		Sessions: s.mgr.Sessions(),
		Live:     s.mgr.Live(),
		Tracked:  s.mgr.Tracked(),
	})
}

// handleHealthz is a liveness probe: the process is up and the mux is
// serving. It deliberately avoids every lock so a long-running decide
// cannot fail the probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 only once boot-time state
// restoration has finished (see the package comment). Liveness and
// readiness are deliberately distinct endpoints so an orchestrator can
// keep a slow-restoring process alive while routing no traffic to it.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "restoring"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics exports the registry: HTTP counters/latency per route,
// engine decision counters per aggregate kind, session lifecycle
// counters and gauges, replication series, and the decide/replay latency
// histograms. JSON by default; an Accept header naming text/plain (what
// a Prometheus scrape sends) selects the text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if acceptsPromText(r.Header.Get("Accept")) {
		// Render to a buffer first: a mid-render failure must be a clean
		// 500, not a torn 200 the scraper ingests as a partial snapshot,
		// and the Content-Length lets the scraper detect truncation.
		var buf bytes.Buffer
		if err := metrics.WritePrometheus(&buf, s.reg.Snapshot()); err != nil {
			s.logf("metrics render failed: %v", err)
			http.Error(w, "metrics render failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", metrics.PrometheusContentType)
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf.Bytes()) //auditlint:allow errsink a failed scrape write is the scraper's disconnect; nothing durable depends on it
		return
	}
	s.writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// acceptsPromText reports whether the Accept header asks for the
// Prometheus text format: any text/plain or openmetrics media range,
// unless application/json appears first. An absent or wildcard header
// keeps the JSON default, so browsers and curl stay human-readable.
func acceptsPromText(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "application/json":
			return false
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// sanitizeKnowledge replaces ±Inf bounds (not expressible in JSON) with
// omitted extremes encoded as NaN-free sentinels: the bound fields keep
// their values only when finite; infinite bounds become ±MaxFloat64.
func sanitizeKnowledge(ks []audit.ElementKnowledge) []audit.ElementKnowledge {
	const huge = 1.797693134862315e+308
	out := append([]audit.ElementKnowledge(nil), ks...)
	for i := range out {
		if out[i].Lower < -huge || out[i].Lower != out[i].Lower {
			out[i].Lower = -huge
		}
		if out[i].Upper > huge || out[i].Upper != out[i].Upper {
			out[i].Upper = huge
		}
	}
	return out
}
