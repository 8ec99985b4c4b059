package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"reflect"
	"strings"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/auditlog"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/server"
	"queryaudit/internal/session"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one request share Req; Parent is
// the span of the layer above that the call stands for.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add closes a span that began at start and returns its ID and duration
// in microseconds.
func (t *tracer) add(parent, req int, name string, start int64) (int, float64) {
	end := t.now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return len(t.spans), float64(end-start) / 1e3
}

// stack is one auditor stack wired the way cmd/auditserver wires it.
type stack struct {
	ds    *dataset.Dataset
	spec  *core.EngineSpec
	reg   *metrics.Registry
	sched *mcpar.Scheduler
}

func newStack(c auditlog.StackConfig) (*stack, error) {
	s := &stack{ds: c.NewDataset(), reg: metrics.NewRegistry()}
	s.spec = core.NewEngineSpec(s.ds)
	s.spec.SetObserver(metrics.NewEngineCollector(s.reg))
	s.spec.SetMCObserver(metrics.NewMCCollector(s.reg))
	s.spec.SetMCWorkers(c.MCWorkers)
	if err := c.RegisterAuditors(s.spec); err != nil {
		return nil, err
	}
	if c.Family == "prob" {
		s.sched = mcpar.NewScheduler(c.MCWorkers)
		s.sched.SetObserver(metrics.NewSchedCollector(s.reg))
		s.spec.SetMCScheduler(s.sched)
	}
	return s, nil
}

func (s *stack) close() {
	if s.sched != nil {
		s.sched.Close()
	}
}

// manager builds a session manager with auditserver's default flags.
func (s *stack) manager() (*session.Manager, error) {
	return session.NewManager(s.spec, session.Config{
		MaxSessions: 4096, MaxLive: 256, TTL: time.Hour, Shards: 16,
		Observer: metrics.NewSessionCollector(s.reg, 16),
	})
}

// engines holds one engine per analyst, built on first use.
type engines struct {
	st   *stack
	byID map[string]*core.Engine
}

func (e *engines) get(analyst string) (*core.Engine, error) {
	if eng, ok := e.byID[analyst]; ok {
		return eng, nil
	}
	eng, err := e.st.spec.Build()
	if err != nil {
		return nil, err
	}
	e.byID[analyst] = eng
	return eng, nil
}

// update applies an update the way session.Manager does: the shared table
// changes once and every existing engine retires its stale constraints.
func (e *engines) update(i int, v float64) error {
	e.st.ds.SetSensitive(i, v)
	for _, eng := range e.byID {
		if err := eng.NoteUpdate(i); err != nil {
			return err
		}
	}
	return nil
}

// decision is a request's outcome at one depth.
type decision struct {
	denied bool
	answer float64
}

// traced replays the run's requests sequentially, in generated order,
// through four fresh stacks built from the workload's StackConfig. Each
// request runs at every depth in turn:
//
//	D0 (*server.Server).ServeHTTP, in-process
//	D1 (*core.SQLResolver).ResolveSQL, then (*session.Manager).Ask
//	D2 (*core.Engine).Ask on one engine per analyst
//	D3 Decide, (*dataset.Dataset).Eval and Record on that engine's auditor
//
// A layer's self time is its depth's time minus the next depth's time for
// the same request. All depths, and the live run, must agree on every
// outcome and answer, and D0 must end with the live server's digest. The
// per-layer figures are added to figures.
func traced(cfg runConfig, p *plan, live *liveRun, figures map[string]metric, rep *report) error {
	sc := cfg.w.stackConfig()
	var st [4]*stack
	for i := range st {
		s, err := newStack(sc)
		if err != nil {
			return err
		}
		defer s.close()
		st[i] = s
	}
	mgr0, err := st[0].manager()
	if err != nil {
		return err
	}
	defer mgr0.Close()
	mgr1, err := st[1].manager()
	if err != nil {
		return err
	}
	defer mgr1.Close()
	srv0 := server.NewWithSessions(mgr0, "salary", server.WithMetrics(st[0].reg))
	res1 := core.NewSQLResolver(mgr1.Resolver())
	d2 := &engines{st: st[2], byID: map[string]*core.Engine{}}
	d3 := &engines{st: st[3], byID: map[string]*core.Engine{}}
	ref := sc.NewDataset()
	liveOut := append(append([]outcome(nil), live.open.out...), live.closed...)

	tr := &tracer{t0: time.Now()}
	var service, serverSelf, resolve, sessSelf, coreSelf, decide, maxmin, eval, record []float64
	byAuditor := map[string][]float64{}
	mismatch := 0
	for req, it := range p.stream() {
		if it.Update {
			if err := updateAll(srv0, mgr1, d2, d3, it); err != nil {
				return err
			}
			ref.SetSensitive(it.Index, it.Value)
			continue
		}
		stmt := p.Pool[it.Stmt]

		start := tr.now()
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(stmt.body))
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set("X-Analyst-ID", it.Analyst)
		srv0.ServeHTTP(rec, hr)
		id0, t0 := tr.add(0, req, "server.ServeHTTP", start)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("D0 request %d: %d %s", req, rec.Code, rec.Body)
		}
		denied, answer, err := parseAnswer(rec.Body.Bytes())
		if err != nil {
			return fmt.Errorf("D0 request %d: %w", req, err)
		}
		dec0 := decision{denied, answer}

		start = tr.now()
		q, err := res1.ResolveSQL("salary", stmt.SQL)
		_, tRes := tr.add(id0, req, "qindex.ResolveSQL", start)
		if err != nil {
			return fmt.Errorf("D1 request %d: %w", req, err)
		}
		start = tr.now()
		resp1, err := mgr1.Ask(it.Analyst, q)
		idS, tSess := tr.add(id0, req, "session.Ask", start)
		if err != nil {
			return fmt.Errorf("D1 request %d: %w", req, err)
		}

		eng2, err := d2.get(it.Analyst)
		if err != nil {
			return err
		}
		start = tr.now()
		resp2, err := eng2.Ask(q)
		idC, tCore := tr.add(idS, req, "core.Ask", start)
		if err != nil {
			return fmt.Errorf("D2 request %d: %w", req, err)
		}

		eng3, err := d3.get(it.Analyst)
		if err != nil {
			return err
		}
		a, ok := eng3.Auditor(q.Kind)
		if !ok {
			return fmt.Errorf("D3 request %d: no auditor for %v", req, q.Kind)
		}
		name := "audit." + auditorName(a)
		start = tr.now()
		d, err := a.Decide(q)
		_, tDec := tr.add(idC, req, name+".Decide", start)
		if err != nil {
			return fmt.Errorf("D3 request %d: %w", req, err)
		}
		dec3 := decision{denied: d == audit.Deny}
		tBelow := tDec
		decide = append(decide, tDec)
		if stmt.Kind != "sum" {
			maxmin = append(maxmin, tDec)
		}
		byAuditor[name+".decide_us"] = append(byAuditor[name+".decide_us"], tDec)
		if !dec3.denied {
			start = tr.now()
			dec3.answer = st[3].ds.Eval(q)
			_, tEval := tr.add(idC, req, "dataset.Eval", start)
			start = tr.now()
			a.Record(q, dec3.answer)
			_, tRec := tr.add(idC, req, name+".Record", start)
			tBelow += tEval + tRec
			eval = append(eval, tEval)
			record = append(record, tRec)
			byAuditor[name+".record_us"] = append(byAuditor[name+".record_us"], tRec)
		}

		service = append(service, t0)
		serverSelf = append(serverSelf, t0-tRes-tSess)
		resolve = append(resolve, tRes)
		sessSelf = append(sessSelf, tSess-tCore)
		coreSelf = append(coreSelf, tCore-tBelow)

		want := decision{}
		if !dec0.denied {
			want.answer = ref.Eval(q)
		}
		want.denied = dec0.denied
		got := []decision{dec0, {resp1.Denied, resp1.Answer}, {resp2.Denied, resp2.Answer}, dec3}
		if lo := liveOut[req]; !lo.failed() {
			got = append(got, decision{lo.denied, lo.answer})
		}
		for _, g := range got {
			if g.denied != want.denied || (!g.denied && g.answer != want.answer) {
				mismatch++
				break
			}
		}
	}
	if mismatch > 0 {
		rep.fail("%d requests disagree across depths, with the live run or with the table copy", mismatch)
	}
	d0, err := sessionsDigest(srv0, "")
	if err != nil {
		return err
	}
	if d0 != live.digest {
		rep.fail("in-process digest %s differs from the live run's %s", d0, live.digest)
	}

	rate, err := restoreRate(sc, mgr1)
	if err != nil {
		return err
	}
	for n, m := range map[string]metric{
		"traced.service_us":          {mean(service), "us"},
		"traced.service_p99_us":      {percentile(service, 99), "us"},
		"server.self_us":             {mean(serverSelf), "us"},
		"qindex.resolve_us":          {mean(resolve), "us"},
		"session.self_us":            {mean(sessSelf), "us"},
		"session.self_p99_us":        {percentile(sessSelf, 99), "us"},
		"core.self_us":               {mean(coreSelf), "us"},
		"audit.decide_us":            {mean(decide), "us"},
		"audit.decide_p99_us":        {percentile(decide, 99), "us"},
		"audit.maxmin.decide_us":     {mean(maxmin), "us"},
		"audit.maxmin.decide_p99_us": {percentile(maxmin, 99), "us"},
		"audit.record_us":            {mean(record), "us"},
		"dataset.eval_us":            {mean(eval), "us"},
		"restore.events_per_s":       {rate, "1/s"},
	} {
		figures[n] = m
	}
	for n, m := range servedMetrics(live.served, p.queries()) {
		figures[n] = m
	}
	for n, xs := range byAuditor {
		figures[n] = metric{mean(xs), "us"}
		if base, ok := strings.CutSuffix(n, ".decide_us"); ok {
			figures[base+".decide_p99_us"] = metric{percentile(xs, 99), "us"}
		}
	}
	rep.note("traced %d requests, %d spans", len(service), len(tr.spans))
	if cfg.traceOut != "" {
		return writeSpans(cfg.traceOut, tr.spans)
	}
	return nil
}

// updateAll applies one update at every depth.
func updateAll(srv0 http.Handler, mgr1 *session.Manager, d2, d3 *engines, it item) error {
	body, err := json.Marshal(map[string]any{"index": it.Index, "value": it.Value})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	srv0.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("D0 update: %d %s", rec.Code, rec.Body)
	}
	if err := mgr1.Update(it.Index, it.Value); err != nil {
		return err
	}
	if err := d2.update(it.Index, it.Value); err != nil {
		return err
	}
	return d3.update(it.Index, it.Value)
}

// auditorName is the auditor's package name: sumfull, maxminfull, ...
func auditorName(a audit.Auditor) string {
	t := reflect.TypeOf(a)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return path.Base(t.PkgPath())
}

// restoreRate times restoring the D1 journals into a fresh manager, the
// work a restarting server does before it is ready.
func restoreRate(sc auditlog.StackConfig, from *session.Manager) (float64, error) {
	snaps := from.LogSnapshots()
	events := 0
	for _, s := range snaps {
		events += len(s.Events)
	}
	s, err := newStack(sc)
	if err != nil {
		return 0, err
	}
	defer s.close()
	mgr, err := s.manager()
	if err != nil {
		return 0, err
	}
	defer mgr.Close()
	start := time.Now()
	if err := mgr.Restore(snaps); err != nil {
		return 0, err
	}
	return float64(events) / time.Since(start).Seconds(), nil
}

// servedMetrics derives per-layer figures from the live server's
// /v1/metrics after the run: mean time in the HTTP handler, the share of
// it spent in the engine's decide step, and work counts per request.
func servedMetrics(s metrics.Snapshot, queries int) map[string]metric {
	c := s.Counters
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	httpSeconds := s.Histograms["http_request_seconds"]
	replayed := c["sessions_replayed_total"]
	return map[string]metric{
		"http.request_us":                  {1e6 * httpSeconds.Sum / float64(max(httpSeconds.Count, 1)), "us"},
		"engine.decide_share":              {s.Histograms["engine_decide_seconds"].Sum / httpSeconds.Sum, "ratio"},
		"session.replays_per_req":          {ratio(replayed, int64(queries)), "count"},
		"session.replay_events_per_replay": {ratio(c["session_replay_events_total"], replayed), "count"},
		"session.evictions_per_req":        {ratio(c["sessions_evicted_total"], int64(queries)), "count"},
		"qindex.sql_hit_ratio":             {ratio(c["qindex_sql_hits_total"], c["qindex_sql_hits_total"]+c["qindex_sql_misses_total"]), "ratio"},
		"mc.samples_per_decision":          {ratio(c["mc_samples_total"], c["mc_decisions_total"]), "count"},
		"mc.saved_ratio":                   {ratio(c["mc_samples_saved_total"], c["mc_samples_total"]+c["mc_samples_saved_total"]), "ratio"},
	}
}

func writeSpans(file string, spans []span) error {
	b, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o644)
}
