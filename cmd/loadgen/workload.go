package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"queryaudit/internal/persist"
)

// config are the harness knobs (see main for the flag descriptions).
type config struct {
	target      string
	analysts    int
	churn       float64
	duration    time.Duration
	requests    int
	concurrency int
	arrival     string
	rate        float64
	mix         string
	statements  int
	zipfS       float64
	sloMS       float64
	out         string
	auditLog    string
	seed        int64
	timeout     time.Duration
}

func (c config) validate() error {
	switch c.arrival {
	case "closed", "uniform", "poisson":
	default:
		return fmt.Errorf("unknown -arrival %q (want closed, uniform or poisson)", c.arrival)
	}
	if c.arrival != "closed" && c.rate <= 0 {
		return fmt.Errorf("-rate must be positive for open arrivals, got %g", c.rate)
	}
	if c.analysts < 1 {
		return fmt.Errorf("-analysts must be >= 1, got %d", c.analysts)
	}
	if c.concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1, got %d", c.concurrency)
	}
	if c.statements < 1 {
		return fmt.Errorf("-statements must be >= 1, got %d", c.statements)
	}
	if c.zipfS != 0 && c.zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1 (or 0 for uniform), got %g", c.zipfS)
	}
	if c.churn < 0 || c.churn > 1 {
		return fmt.Errorf("-churn must be in [0,1], got %g", c.churn)
	}
	if _, err := parseMix(c.mix); err != nil {
		return err
	}
	return nil
}

// statement is one pool entry: the SQL text and its aggregate kind (for
// per-kind reporting).
type statement struct {
	sql  string
	kind string
}

// parseMix parses "sum=4,max=2" into ordered kind/weight pairs.
func parseMix(mix string) ([]struct {
	kind   string
	weight int
}, error) {
	var out []struct {
		kind   string
		weight int
	}
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		kind := strings.ToLower(strings.TrimSpace(kv[0]))
		switch kind {
		case "sum", "max", "min", "avg":
		default:
			return nil, fmt.Errorf("unknown aggregate %q in -mix (want sum, max, min or avg)", kind)
		}
		w := 1
		if len(kv) == 2 {
			var err error
			if w, err = strconv.Atoi(strings.TrimSpace(kv[1])); err != nil || w < 1 {
				return nil, fmt.Errorf("bad weight for %q in -mix", kind)
			}
		}
		out = append(out, struct {
			kind   string
			weight int
		}{kind, w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix selects no aggregates")
	}
	return out, nil
}

// buildStatements generates the deterministic statement pool over the
// company schema auditserver serves (ages 21–65, the five demo zips,
// the five demo departments). Kinds are assigned by mix weight;
// predicates vary so distinct pool entries resolve distinct row sets.
func buildStatements(cfg config) ([]statement, error) {
	mix, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	kindAt := func(i int) string {
		k := i % total
		for _, m := range mix {
			if k < m.weight {
				return m.kind
			}
			k -= m.weight
		}
		return mix[0].kind
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	zips := []string{"94305", "94301", "94025", "95014", "94040"}
	depts := []string{"eng", "sales", "hr", "finance", "legal"}
	pool := make([]statement, 0, cfg.statements)
	for i := 0; i < cfg.statements; i++ {
		kind := kindAt(i)
		var where string
		switch rng.Intn(4) {
		case 0:
			lo := 21 + rng.Intn(35)
			where = fmt.Sprintf("age BETWEEN %d AND %d", lo, lo+4+rng.Intn(18))
		case 1:
			where = fmt.Sprintf("dept = '%s'", depts[rng.Intn(len(depts))])
		case 2:
			where = fmt.Sprintf("zip = '%s' AND age >= %d", zips[rng.Intn(len(zips))], 21+rng.Intn(25))
		default:
			where = fmt.Sprintf("age >= %d", 21+rng.Intn(35))
		}
		pool = append(pool, statement{
			sql:  fmt.Sprintf("SELECT %s(salary) WHERE %s", kind, where),
			kind: kind,
		})
	}
	return pool, nil
}

// sample is one request's outcome.
type sample struct {
	kind     string
	analyst  string
	sql      string
	ts       string // request start, RFC3339Nano (audit-log emission)
	latency  time.Duration
	status   int
	denied   bool
	answered bool
	answer   float64
	failed   bool // transport error (no HTTP status)
	retried  bool // followed one 421 misdirected hop
}

// outcome classifies the sample the way an audit log records it:
// answered and denied are protocol outcomes; everything else (transport
// failure, non-200 status) is "error" — the query may never have
// reached an auditor, and the offline replayer skips such lines.
func (s sample) outcome() string {
	switch {
	case s.answered:
		return "answered"
	case s.status == http.StatusOK && s.denied:
		return "denied"
	default:
		return "error"
	}
}

// run drives the configured arrival process and returns every sample
// plus the measured wall time.
func run(cfg config, client *http.Client, pool []statement, logger interface{ Printf(string, ...any) }) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		churnN  int
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	// analystFor picks the session identity: steady pool or churned-in
	// newcomer. rng access is caller-local.
	analystFor := func(rng *rand.Rand) string {
		if cfg.churn > 0 && rng.Float64() < cfg.churn {
			mu.Lock()
			churnN++
			id := churnN
			mu.Unlock()
			return fmt.Sprintf("churn-%d", id)
		}
		return fmt.Sprintf("analyst-%d", rng.Intn(cfg.analysts))
	}

	deadline := time.Now().Add(cfg.duration)
	var issued sync.WaitGroup
	var count struct {
		sync.Mutex
		n int
	}
	// more reports whether another request may start (closed loop checks
	// time; -requests caps both modes).
	more := func() bool {
		if cfg.requests > 0 {
			count.Lock()
			defer count.Unlock()
			if count.n >= cfg.requests {
				return false
			}
			count.n++
			return true
		}
		return time.Now().Before(deadline)
	}

	start := time.Now()
	switch cfg.arrival {
	case "closed":
		for w := 0; w < cfg.concurrency; w++ {
			issued.Add(1)
			go func(w int) {
				defer issued.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(w) + 1))
				pick := newPicker(rng, cfg.zipfS, len(pool))
				for more() {
					st := pool[pick()]
					record(doQuery(client, cfg.target, analystFor(rng), st))
				}
			}(w)
		}
	default: // uniform | poisson open loop
		rng := rand.New(rand.NewSource(cfg.seed))
		pick := newPicker(rng, cfg.zipfS, len(pool))
		sem := make(chan struct{}, cfg.concurrency)
		interarrival := func() time.Duration {
			mean := float64(time.Second) / cfg.rate
			if cfg.arrival == "poisson" {
				return time.Duration(rng.ExpFloat64() * mean)
			}
			return time.Duration(mean)
		}
		for more() {
			st := pool[pick()]
			analyst := analystFor(rng)
			// The in-flight cap bounds memory when the server saturates;
			// blocking here makes the achieved (not offered) rate what the
			// report measures — see docs/DEPLOYMENT.md on capacity runs.
			sem <- struct{}{}
			issued.Add(1)
			go func() {
				defer func() { <-sem; issued.Done() }()
				record(doQuery(client, cfg.target, analyst, st))
			}()
			time.Sleep(interarrival())
		}
	}
	issued.Wait()
	elapsed := time.Since(start)
	logger.Printf("issued %d requests in %s", len(samples), elapsed.Round(time.Millisecond))
	return samples, elapsed
}

// newPicker returns a statement selector: Zipf-skewed over the pool
// (rank 0 hottest) when s > 1, uniform when s == 0.
func newPicker(rng *rand.Rand, s float64, n int) func() int {
	if s == 0 || n == 1 {
		return func() int { return rng.Intn(n) }
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// doQuery posts one SQL statement as the given analyst and classifies
// the outcome. A 421 misdirected response from a replica names the
// primary in primary_url; the harness follows it exactly once (the same
// hop a well-behaved client makes), so driving a replica still reaches
// the auditor. The recorded latency spans both hops — that IS the cost
// a misdirected client pays.
func doQuery(client *http.Client, base, analyst string, st statement) sample {
	body, _ := json.Marshal(map[string]string{"sql": st.sql})
	t0 := time.Now()
	out := sample{kind: st.kind, analyst: analyst, sql: st.sql, ts: t0.UTC().Format(time.RFC3339Nano)}
	resp, err := postQuery(client, base, analyst, body)
	if err != nil {
		out.latency = time.Since(t0)
		out.failed = true
		return out
	}
	if resp.StatusCode == http.StatusMisdirectedRequest {
		var mb struct {
			PrimaryURL string `json:"primary_url"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if json.Unmarshal(raw, &mb) == nil && mb.PrimaryURL != "" {
			out.retried = true
			resp, err = postQuery(client, mb.PrimaryURL, analyst, body)
			if err != nil {
				out.latency = time.Since(t0)
				out.failed = true
				return out
			}
		} else {
			out.latency = time.Since(t0)
			out.status = http.StatusMisdirectedRequest
			return out
		}
	}
	defer resp.Body.Close()
	out.latency = time.Since(t0)
	out.status = resp.StatusCode
	var qr struct {
		Denied bool     `json:"denied"`
		Answer *float64 `json:"answer"`
	}
	if resp.StatusCode == http.StatusOK {
		if json.NewDecoder(resp.Body).Decode(&qr) == nil {
			out.denied = qr.Denied
			if !qr.Denied && qr.Answer != nil {
				out.answered = true
				out.answer = *qr.Answer
			}
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return out
}

// postQuery issues one /v1/query POST against base.
func postQuery(client *http.Client, base, analyst string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, strings.TrimSuffix(base, "/")+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Analyst-ID", analyst)
	return client.Do(req)
}

// auditLine is one emitted audit-log record — the ndjson schema
// internal/auditlog ingests (auditlog.FormatNDJSON), so a loadgen run
// plus auditreport forms a closed retrospective pipeline.
type auditLine struct {
	TS      string   `json:"ts"`
	Analyst string   `json:"analyst"`
	SQL     string   `json:"sql"`
	Kind    string   `json:"kind"`
	Outcome string   `json:"outcome"`
	Answer  *float64 `json:"answer,omitempty"`
}

// writeAuditLog emits every sample as one audit-log line, in completion
// order (with -concurrency 1 that is exactly the server's per-analyst
// decision order, which is what bit-for-bit replay verification needs).
func writeAuditLog(path string, samples []sample) error {
	return persist.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range samples {
			line := auditLine{TS: s.ts, Analyst: s.analyst, SQL: s.sql, Kind: s.kind, Outcome: s.outcome()}
			if s.answered {
				ans := s.answer
				line.Answer = &ans
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
		return nil
	})
}

// percentile returns the p-quantile (0..1) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// sortedLatencies extracts and sorts the latencies of non-failed samples.
func sortedLatencies(samples []sample) []time.Duration {
	out := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if !s.failed {
			out = append(out, s.latency)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
