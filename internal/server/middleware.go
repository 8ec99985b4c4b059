package server

import (
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"queryaudit/internal/metrics"
	"queryaudit/internal/replica"
)

// Options are the serving-path knobs. Zero values mean "use Defaults()";
// NewWithSessions applies Defaults first, so callers only override what
// they need.
type Options struct {
	// MaxBodyBytes caps every POST body via http.MaxBytesReader.
	MaxBodyBytes int64
	// MaxIndices bounds the index list accepted by /v1/queryset and by
	// each query inside /v1/prime.
	MaxIndices int
	// MaxPrimeQueries bounds the query list accepted by /v1/prime.
	MaxPrimeQueries int
	// PerClientConcurrency bounds in-flight requests per client IP;
	// 0 disables the limiter. Excess requests are rejected with 429.
	PerClientConcurrency int
	// AccessLog, when non-nil, receives one structured line per request
	// (method, path, status, bytes, duration, client).
	AccessLog *log.Logger

	// ReadHeaderTimeout / ReadTimeout / WriteTimeout / IdleTimeout are
	// applied to the http.Server by Run.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
	// ShutdownTimeout bounds the graceful drain in Run.
	ShutdownTimeout time.Duration
}

// Defaults returns the production defaults documented in
// docs/DEPLOYMENT.md.
func Defaults() Options {
	return Options{
		MaxBodyBytes:      1 << 20, // 1 MiB
		MaxIndices:        100_000,
		MaxPrimeQueries:   1024,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ShutdownTimeout:   10 * time.Second,
	}
}

// Option customizes a Server at construction.
type Option func(*Server)

// WithOptions replaces the serving options wholesale (start from
// Defaults() and tweak).
func WithOptions(o Options) Option { return func(s *Server) { s.opts = o } }

// WithMetrics records into an externally owned registry instead of an
// internal one (so the caller can read counters after shutdown).
func WithMetrics(reg *metrics.Registry) Option { return func(s *Server) { s.reg = reg } }

// WithReadinessGate starts the server not-ready: /readyz and every
// session-scoped endpoint answer 503 until MarkReady is called. Use it
// when boot-time restoration (session-log replay) runs after the listener is already accepting.
func WithReadinessGate() Option { return func(s *Server) { s.gated = true } }

// WithReplication attaches a replication node: the /v1/replication/*
// endpoints mount, state-mutating endpoints answer 421 whenever the node
// is not the primary, and sessions the node has quarantined
// after divergence detection answer 503 instead of serving state the
// primary never produced.
func WithReplication(n *replica.Node) Option { return func(s *Server) { s.repl = n } }

// httpMetrics holds the per-route HTTP counters and the request-latency
// histogram, pre-registered so handlers never take the registry mutex.
//
// Exported names:
//
//	http_requests_total            all requests
//	http_requests_total_<route>    per route (path pattern, slashes → _)
//	http_responses_total_<class>   2xx / 4xx / 5xx
//	http_throttled_total           429s from the per-client limiter
//	http_encode_failures_total     response bodies that failed to encode
//	http_request_seconds           end-to-end handler latency
type httpMetrics struct {
	total      *metrics.Counter
	perRoute   map[string]*metrics.Counter
	other      *metrics.Counter
	class2xx   *metrics.Counter
	class4xx   *metrics.Counter
	class5xx   *metrics.Counter
	throttled  *metrics.Counter
	encodeFail *metrics.Counter
	latency    *metrics.Histogram
}

// routes lists the served path patterns for per-route counters.
var routes = []string{
	"/v1/query", "/v1/queryset", "/v1/update", "/v1/stats", "/v1/schema",
	"/v1/journal", "/v1/knowledge", "/v1/prime", "/v1/sessions", "/v1/metrics",
	"/v1/replication/status", "/v1/replication/snapshot",
	"/v1/replication/stream", "/v1/replication/promote",
	"/v1/replication/demote",
	"/healthz", "/readyz",
}

func routeCounterName(path string) string {
	return "http_requests_total" + strings.ReplaceAll(path, "/", "_")
}

func newHTTPMetrics(reg *metrics.Registry) *httpMetrics {
	m := &httpMetrics{
		total:      reg.Counter("http_requests_total"),
		perRoute:   make(map[string]*metrics.Counter, len(routes)),
		other:      reg.Counter("http_requests_total_other"),
		class2xx:   reg.Counter("http_responses_total_2xx"),
		class4xx:   reg.Counter("http_responses_total_4xx"),
		class5xx:   reg.Counter("http_responses_total_5xx"),
		throttled:  reg.Counter("http_throttled_total"),
		encodeFail: reg.Counter("http_encode_failures_total"),
		latency:    reg.Histogram("http_request_seconds", nil),
	}
	for _, r := range routes {
		m.perRoute[r] = reg.Counter(routeCounterName(r))
	}
	return m
}

func (m *httpMetrics) observe(path string, status int, elapsed time.Duration) {
	m.total.Inc()
	if c, ok := m.perRoute[path]; ok {
		c.Inc()
	} else {
		m.other.Inc()
	}
	switch {
	case status >= 500:
		m.class5xx.Inc()
	case status >= 400:
		m.class4xx.Inc()
	default:
		m.class2xx.Inc()
	}
	m.latency.ObserveDuration(elapsed)
}

// statusRecorder captures the status code and bytes written.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// clientLimiter bounds in-flight requests per client IP.
type clientLimiter struct {
	mu       sync.Mutex
	max      int
	inflight map[string]int
}

func newClientLimiter(max int) *clientLimiter {
	return &clientLimiter{max: max, inflight: map[string]int{}}
}

// acquire reports whether the client may proceed; release must be called
// iff it returned true.
func (l *clientLimiter) acquire(client string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight[client] >= l.max {
		return false
	}
	l.inflight[client]++
	return true
}

func (l *clientLimiter) release(client string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight[client] <= 1 {
		delete(l.inflight, client) // keep the map from accumulating idle clients
	} else {
		l.inflight[client]--
	}
}

// clientKey extracts the client IP from RemoteAddr (falling back to the
// whole string when it is not host:port).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// middleware wraps the mux with (outermost first) per-client limiting,
// then metrics + access logging.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		client := clientKey(r)
		if s.limiter != nil {
			if !s.limiter.acquire(client) {
				s.httpM.throttled.Inc()
				s.httpM.observe(r.URL.Path, http.StatusTooManyRequests, 0)
				s.writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "too many concurrent requests from this client"})
				return
			}
			defer s.limiter.release(client)
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.httpM.observe(r.URL.Path, rec.status, elapsed)
		if s.opts.AccessLog != nil {
			s.opts.AccessLog.Printf("method=%s path=%s status=%d bytes=%d duration=%s client=%s",
				r.Method, r.URL.Path, rec.status, rec.bytes, elapsed.Round(time.Microsecond), client)
		}
	})
}
