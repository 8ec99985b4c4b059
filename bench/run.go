package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
)

const (
	// minRounds is the fewest rounds an end-to-end run makes: each of its
	// metrics pools, or is the median of, at least this many rounds.
	minRounds = 3
	// maxLatenessMS is the generator-health limit: above it the open loop
	// did not send on schedule and the latencies are not the server's. On
	// a shared two-vCPU machine a healthy dispatcher's wake-ups reached
	// 5-10 ms at that percentile while the host was busy; latency counts
	// from the due time, so such a delay adds to it rather than hiding.
	maxLatenessMS = 20.0
	// probes is the number of fresh analysts that query the restarted
	// server in workloads with updates.
	probes = 64
)

type runConfig struct {
	w        workload
	seed     int64
	length   time.Duration // no round starts that would end after this
	trace    bool
	traceOut string
	nproc    int
	bin      string
	metrics  []metricSpec // the metrics to report, from BENCHMARK.json
}

// report collects one run's result, its checks and its side notes.
type report struct {
	cfg runConfig
	result
	digest   string
	info     []string
	failures []string
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// publish reports the run's metrics out of every figure it measured and
// prints the other figures as notes. A metric the run did not measure,
// or measured in another unit, fails the run.
func (r *report) publish(figures map[string]metric, specs []metricSpec) {
	rest := make(map[string]metric, len(figures))
	for n, m := range figures {
		rest[n] = m
	}
	for _, s := range specs {
		m, ok := rest[s.Name]
		switch {
		case !ok || math.IsNaN(m.Value):
			r.fail("metric %s was not measured", s.Name)
			continue
		case m.Unit != s.Unit:
			r.fail("metric %s is in %s, BENCHMARK.json says %s", s.Name, m.Unit, s.Unit)
		}
		r.Metrics[s.Name] = m
		delete(rest, s.Name)
	}
	r.info = append(r.info, formatMetrics(rest)...)
}

// count adds a batch of outcomes to attempted and failed.
func (r *report) count(out []outcome) {
	for _, o := range out {
		r.Attempted++
		if o.failed() {
			r.Failed++
		}
	}
}

// liveRun is what one round's phases against the real server yield.
type liveRun struct {
	open       openResult
	closed     []outcome
	closedBusy time.Duration // closed phase while every worker had requests left
	probes     []outcome
	setup      time.Duration // restart from exec to ready; zero when traced
	cpuTicks   int64         // server CPU over both phases, in 1/100 s
	rssMB      float64       // server peak RSS after both phases
	digest     string        // decisions digest after both phases
	served     metrics.Snapshot
}

// tally is what the pooled metrics count, over one round or over several
// added together.
type tally struct {
	lat     []float64     // open-phase query latencies in ms; failures are +Inf
	within  int           // of those, answered within the SLO
	ok      int           // closed-phase successes while every worker was busy
	busy    time.Duration // closed phase while every worker was busy
	ticks   int64         // server CPU over both phases, in 1/100 s
	queries int           // queries over both phases
}

func (t *tally) add(u tally) {
	t.lat = append(t.lat, u.lat...)
	t.within += u.within
	t.ok += u.ok
	t.busy += u.busy
	t.ticks += u.ticks
	t.queries += u.queries
}

// metrics are the figures a tally gives. Over several rounds they weigh
// every request alike, which a median of the rounds' figures would not.
func (t tally) metrics() map[string]metric {
	return map[string]metric{
		"latency_p50_ms": {percentile(t.lat, 50), "ms"},
		"latency_p90_ms": {percentile(t.lat, 90), "ms"},
		"latency_p99_ms": {percentile(t.lat, 99), "ms"},
		"slo_attainment": {float64(t.within) / float64(len(t.lat)), "ratio"},
		"throughput_rps": {float64(t.ok) / t.busy.Seconds(), "1/s"},
		"cpu_ms_per_req": {float64(t.ticks) * 10 / float64(t.queries), "ms"},
	}
}

// round is one round's figures and its tally.
type round struct {
	figures map[string]metric
	tally   tally
}

// run executes one workload run: a series of identical rounds, each on a
// fresh server with its own arrivals, for as long as the run length
// allows. Every answer is checked. The latency, throughput and CPU figures
// pool the requests of every round; the others, setup_s and peak_rss_mb
// among them, are medians of the rounds' figures. Times and rates are
// scaled to the reference speed (speed.go). With tracing there is one
// round, whose requests are then replayed in-process for the per-layer
// metrics.
func run(cfg runConfig) (*report, error) {
	rep := &report{cfg: cfg, result: result{Correct: true, Metrics: map[string]metric{}}}
	var (
		rounds                  []round
		lateness                []time.Duration
		denied, decided         int
		stale, answered, probed int
		stolen                  []float64 // per round, the share of CPU time the host took
		speed                   *reference
	)
	if !cfg.trace {
		var err error
		if speed, err = startReference(cfg.nproc); err != nil {
			return nil, err
		}
		defer speed.stop()
	}
	start := time.Now()
	for k := 0; ; k++ {
		p, err := generate(cfg.w, roundSeed(cfg.seed, k), cfg.w.round)
		if err != nil {
			return nil, err
		}
		if speed != nil {
			if err := speed.sample(); err != nil {
				return nil, err
			}
		}
		// A collection in the middle of the open phase would delay the
		// generator, not the server.
		runtime.GC()
		t0, steal0 := time.Now(), readSteal()
		live, err := liveRound(cfg, p, rep)
		if err != nil {
			return nil, err
		}
		stolen = append(stolen, stolenShare(steal0, readSteal(), time.Since(t0)))
		switch {
		case k == 0:
			rep.digest = live.digest
			rep.note("decisions digest %s", live.digest)
		case cfg.w.updates == 0 && live.digest != rep.digest:
			// Without updates every round asks for the same decisions.
			rep.fail("round %d decisions digest %s differs from round 0's %s", k, live.digest, rep.digest)
		}
		rep.count(live.open.out)
		rep.count(live.closed)
		rep.count(live.probes)
		ref, wrong, d, n := verify(p, live.open.out, live.closed)
		if wrong > 0 {
			rep.fail("round %d: wrong_answers=%d: answers differ from the table copy", k, wrong)
		}
		denied, decided = denied+d, decided+n
		lateness = append(lateness, live.open.lateness...)
		if len(live.probes) > 0 {
			s, a := staleProbes(p, ref, live.probes)
			stale, answered, probed = stale+s, answered+a, probed+len(live.probes)
		}
		r := newRound(cfg.w, p, live)
		rounds = append(rounds, r)
		figures := r.figures
		rep.note("round %d: open %d items at %.0f/s in %.2fs, closed %d requests in %.2fs; p50 %.3f ms, p90 %.3f ms, %.0f/s, %.4f ms CPU, set-up %.3f s, %.2f%% stolen",
			k, len(p.Open), cfg.w.rate, live.open.elapsed.Seconds(), len(live.closed), live.closedBusy.Seconds(),
			figures["latency_p50_ms"].Value, figures["latency_p90_ms"].Value, figures["throughput_rps"].Value,
			figures["cpu_ms_per_req"].Value, live.setup.Seconds(), 100*stolen[k])
		if cfg.trace {
			if err := traced(cfg, p, live, figures, rep); err != nil {
				return nil, err
			}
			break
		}
		// Start another round only if it should end within the run length,
		// judging by the rounds so far.
		took := time.Since(start)
		if k+1 >= minRounds && took+took/time.Duration(k+1) > cfg.length {
			break
		}
	}
	rep.note("denial_rate %.4f (%d of %d decided)", float64(denied)/float64(decided), denied, decided)
	// The limit applies to the highest percentile with at least ten
	// wake-ups beyond it, the p99 from 1000 wake-ups on. A rarer wake-up
	// is one or two scheduling hiccups, too fragile to invalidate a run.
	if n := len(lateness); n >= 100 {
		pct := math.Min(99, 100*(1-10/float64(n)))
		if lp := percentile(durationsMS(lateness), pct); lp > maxLatenessMS {
			rep.fail("generator lateness p%.0f %.2f ms exceeds %.0f ms: the open loop fell behind", pct, lp, maxLatenessMS)
		}
	}
	if probed > 0 {
		rep.note("stale_after_restart %.4f (%d of %d answered probes; non-gating, see README)",
			float64(stale)/float64(max(answered, 1)), stale, answered)
	}
	kept := undisturbed(rounds, stolen)
	if len(kept) < len(rounds) {
		rep.note("%d of %d rounds left out of the metrics: the host took more than %.0f%% of the CPU time during them",
			len(rounds)-len(kept), len(rounds), 100*maxStolen)
	}
	figures := medians(kept)
	var pooled tally
	for _, r := range kept {
		pooled.add(r.tally)
	}
	for n, m := range pooled.metrics() {
		figures[n] = m
	}
	if speed != nil {
		f := speed.factor()
		scaleToReference(figures, f)
		rep.note("reference work: median %.3f ms over %d timings, %.4f × the nominal %.0f ms; times below are divided by that to the power %.1f, %.4f, and rates multiplied (round lines are unscaled)",
			median(speed.samples), len(speed.samples), f, refNominalMS, refExponent, math.Pow(f, refExponent))
	}
	rep.publish(figures, cfg.metrics)
	if rep.Failed > 0 {
		rep.fail("%d of %d requests failed", rep.Failed, rep.Attempted)
	}
	return rep, nil
}

// medians merges the rounds' figures: each is the median over the rounds
// that measured it.
func medians(rounds []round) map[string]metric {
	values := map[string][]float64{}
	out := map[string]metric{}
	for _, r := range rounds {
		for n, m := range r.figures {
			values[n] = append(values[n], m.Value)
			out[n] = m
		}
	}
	for n, xs := range values {
		out[n] = metric{median(xs), out[n].Unit}
	}
	return out
}

// scaleToReference rescales figures measured at speed factor f to the
// reference speed: a time is divided by f to the power refExponent and a
// rate multiplied by that.
func scaleToReference(figures map[string]metric, f float64) {
	s := math.Pow(f, refExponent)
	for n, m := range figures {
		switch m.Unit {
		case "s", "ms", "us":
			m.Value /= s
		case "1/s":
			m.Value *= s
		}
		figures[n] = m
	}
}

// liveRound runs one round against a fresh server whose session snapshot
// lives in a temporary directory.
func liveRound(cfg runConfig, p *plan, rep *report) (*liveRun, error) {
	dir, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"-addr", "127.0.0.1:0", "-quiet", "-session-snapshot", filepath.Join(dir, "sessions.json")},
		cfg.w.serverFlags()...)
	return drive(cfg, args, p, rep)
}

// drive runs the open and closed phases against the real server, then
// stops it, which saves its session snapshot. Without tracing it restarts
// the server from that snapshot, timing the start and checking that every
// transcript was restored.
func drive(cfg runConfig, args []string, p *plan, rep *report) (*liveRun, error) {
	srv, _, err := startServer(cfg.bin, args, cfg.nproc)
	if err != nil {
		return nil, err
	}
	live, err := phases(srv, p, cfg.nproc)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil || cfg.trace {
		return live, err
	}
	srv, live.setup, err = startServer(cfg.bin, args, cfg.nproc)
	if err != nil {
		return nil, err
	}
	got, err := sessionsDigest(nil, srv.base)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if got != live.digest {
		rep.fail("the restart restored digest %s, the live server had %s", got, live.digest)
	}
	if cfg.w.updates > 0 {
		live.probes = probe(srv, p)
	}
	return live, srv.stop()
}

// phases runs the open and closed phases and reads what the server
// reports afterwards.
func phases(srv *serverProc, p *plan, nproc int) (*liveRun, error) {
	t0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	live := &liveRun{}
	if live.open, err = runOpen(srv.base, p.Open, p.Pool, nproc); err != nil {
		return nil, err
	}
	live.closed, live.closedBusy = runClosed(srv.base, p.Closed, p.Pool, nproc)
	t1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	live.cpuTicks = t1 - t0
	if live.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if live.digest, err = sessionsDigest(nil, srv.base); err != nil {
		return nil, err
	}
	live.served, err = fetchMetrics(nil, srv.base)
	return live, err
}

// verify replays the run's answers against the benchmark's table copy,
// applying each update where the schedule put it, and returns the copy
// in its final state.
func verify(p *plan, open, closed []outcome) (ref *dataset.Dataset, wrong, denied, decided int) {
	ref = p.w.stackConfig().NewDataset()
	check := func(it item, o outcome) {
		switch {
		case it.Update:
			ref.SetSensitive(it.Index, it.Value)
		case o.failed():
		case o.denied:
			denied++
			decided++
		default:
			decided++
			if o.answer != ref.Eval(p.Pool[it.Stmt].q) {
				wrong++
			}
		}
	}
	for i, it := range p.Open {
		check(it, open[i])
	}
	for i, it := range p.Closed {
		check(it, closed[i])
	}
	return ref, wrong, denied, decided
}

// newRound derives every figure of one live round: the end-to-end
// metrics, the generator's own figures, and others printed as notes.
func newRound(w workload, p *plan, live *liveRun) round {
	t := tally{busy: live.closedBusy, ticks: live.cpuTicks, queries: p.queries()}
	for i, it := range p.Open {
		if it.Update {
			continue
		}
		ms := latencyMS(it, live.open.out[i])
		t.lat = append(t.lat, ms)
		if ms <= float64(w.slo)/float64(time.Millisecond) {
			t.within++
		}
	}
	// Throughput counts the successes while every worker still had
	// requests to send.
	for _, o := range live.closed {
		if !o.failed() && o.done <= live.closedBusy {
			t.ok++
		}
	}
	ms := generatorMetrics(p, live)
	for n, m := range t.metrics() {
		ms[n] = m
	}
	ms["peak_rss_mb"] = metric{live.rssMB, "MB"}
	if live.setup > 0 {
		ms["setup_s"] = metric{live.setup.Seconds(), "s"}
	}
	return round{figures: ms, tally: t}
}

// latencyMS is an open-phase request's latency from its due time to the
// last byte of the response; a failed request never completes.
func latencyMS(it item, o outcome) float64 {
	if o.failed() {
		return math.Inf(1)
	}
	return float64(o.done-it.Due) / float64(time.Millisecond)
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// generatorMetrics are the figures the load generator itself measures:
// queueing before send, time on the wire, latency by kind, the update
// barrier and the dispatcher's own lateness.
func generatorMetrics(p *plan, live *liveRun) map[string]metric {
	var wait, wire, upd []float64
	byKind := map[string][]float64{}
	for i, it := range p.Open {
		o := live.open.out[i]
		if it.Update {
			upd = append(upd, latencyMS(it, o))
			continue
		}
		wait = append(wait, float64(o.sent-it.Due)/float64(time.Millisecond))
		wire = append(wire, float64(o.done-o.sent)/float64(time.Millisecond))
		k := p.Pool[it.Stmt].Kind
		byKind[k] = append(byKind[k], latencyMS(it, o))
	}
	ms := map[string]metric{
		"client.dispatch_wait_p99_ms": {percentile(wait, 99), "ms"},
		"client.send_to_done_p50_ms":  {percentile(wire, 50), "ms"},
		"client.send_to_done_p99_ms":  {percentile(wire, 99), "ms"},
		"bench.gen_lateness_p99_ms":   {percentile(durationsMS(live.open.lateness), 99), "ms"},
	}
	for k, xs := range byKind {
		ms["kind."+k+".p50_ms"] = metric{percentile(xs, 50), "ms"}
		ms["kind."+k+".p99_ms"] = metric{percentile(xs, 99), "ms"}
	}
	if len(upd) > 0 {
		ms["update.p99_ms"] = metric{percentile(upd, 99), "ms"}
	}
	return ms
}

// probe sends one pool statement for each of several fresh analysts to
// the restarted server.
func probe(srv *serverProc, p *plan) []outcome {
	c := newClient(srv.base)
	defer c.close()
	start := time.Now()
	out := make([]outcome, probes)
	for i := range out {
		out[i] = c.query(fmt.Sprintf("probe-%d", i), p.Pool[i%len(p.Pool)].body, start)
	}
	return out
}

// staleProbes counts the probe answers that disagree with the table copy
// in its final state: non-zero means acknowledged updates did not survive
// the restart.
func staleProbes(p *plan, ref *dataset.Dataset, out []outcome) (stale, answered int) {
	for i, o := range out {
		if o.failed() || o.denied {
			continue
		}
		answered++
		if o.answer != ref.Eval(p.Pool[i%len(p.Pool)].q) {
			stale++
		}
	}
	return stale, answered
}
