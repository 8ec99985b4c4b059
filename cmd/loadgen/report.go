package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"queryaudit/internal/persist"
)

// Report is the LOADGEN_<date>.json artifact: enough context to rerun
// the workload (config echo), plus the capacity figures a planner needs
// (latency distribution, achieved throughput, denial rate, QPS within
// SLO). Reports are written atomically so an interrupted run never
// leaves a truncated artifact for a dashboard to choke on.
type Report struct {
	GeneratedAt string       `json:"generated_at"`
	Target      string       `json:"target"`
	Workload    WorkloadEcho `json:"workload"`
	Totals      Totals       `json:"totals"`
	ByKind      []KindStats  `json:"by_kind"`
	LatencyMS   Latency      `json:"latency_ms"`
	AchievedQPS float64      `json:"achieved_qps"`
	SLO         SLO          `json:"slo"`
}

// WorkloadEcho pins the knobs that shaped the run.
type WorkloadEcho struct {
	Analysts    int     `json:"analysts"`
	Churn       float64 `json:"churn"`
	Arrival     string  `json:"arrival"`
	RateTarget  float64 `json:"rate_target,omitempty"`
	Concurrency int     `json:"concurrency"`
	Mix         string  `json:"mix"`
	Statements  int     `json:"statements"`
	ZipfS       float64 `json:"zipf_s"`
	Seed        int64   `json:"seed"`
	DurationSec float64 `json:"duration_seconds"`
}

// Totals classify every request: answered and denied are protocol
// outcomes; the error rows are harness- or server-side failures.
type Totals struct {
	Requests        int     `json:"requests"`
	Answered        int     `json:"answered"`
	Denied          int     `json:"denied"`
	DenialRate      float64 `json:"denial_rate"`
	HTTP4xx         int     `json:"http_4xx"`
	HTTP5xx         int     `json:"http_5xx"`
	TransportErrors int     `json:"transport_errors"`
	Retried421      int     `json:"retried_421,omitempty"`
}

// KindStats is the per-aggregate slice of the totals.
type KindStats struct {
	Kind     string  `json:"kind"`
	Requests int     `json:"requests"`
	Answered int     `json:"answered"`
	Denied   int     `json:"denied"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// Latency is the overall latency distribution in milliseconds.
type Latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// SLO is the capacity figure: of the achieved throughput, how much
// landed within the latency target.
type SLO struct {
	ThresholdMS    float64 `json:"threshold_ms"`
	WithinFraction float64 `json:"within_fraction"`
	QPSWithinSLO   float64 `json:"qps_within_slo"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// buildReport folds the samples into the artifact.
func buildReport(cfg config, samples []sample, elapsed time.Duration) *Report {
	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Target:      cfg.target,
		Workload: WorkloadEcho{
			Analysts:    cfg.analysts,
			Churn:       cfg.churn,
			Arrival:     cfg.arrival,
			Concurrency: cfg.concurrency,
			Mix:         cfg.mix,
			Statements:  cfg.statements,
			ZipfS:       cfg.zipfS,
			Seed:        cfg.seed,
			DurationSec: elapsed.Seconds(),
		},
	}
	if cfg.arrival != "closed" {
		rep.Workload.RateTarget = cfg.rate
	}

	type kindAgg struct {
		stats KindStats
		lats  []time.Duration
	}
	kinds := map[string]*kindAgg{}
	order := []string{}
	within := 0
	var sum time.Duration
	for _, s := range samples {
		rep.Totals.Requests++
		if s.retried {
			rep.Totals.Retried421++
		}
		ka := kinds[s.kind]
		if ka == nil {
			ka = &kindAgg{stats: KindStats{Kind: s.kind}}
			kinds[s.kind] = ka
			order = append(order, s.kind)
		}
		ka.stats.Requests++
		switch {
		case s.failed:
			rep.Totals.TransportErrors++
			continue
		case s.status >= 500:
			rep.Totals.HTTP5xx++
			continue
		case s.status >= 400:
			rep.Totals.HTTP4xx++
			continue
		case s.denied:
			rep.Totals.Denied++
			ka.stats.Denied++
		default:
			rep.Totals.Answered++
			ka.stats.Answered++
		}
		ka.lats = append(ka.lats, s.latency)
		sum += s.latency
		if ms(s.latency) <= cfg.sloMS {
			within++
		}
	}
	decided := rep.Totals.Answered + rep.Totals.Denied
	if decided > 0 {
		rep.Totals.DenialRate = float64(rep.Totals.Denied) / float64(decided)
	}

	all := sortedLatencies(samples)
	if len(all) > 0 {
		rep.LatencyMS = Latency{
			Mean: ms(sum / time.Duration(len(all))),
			P50:  ms(percentile(all, 0.50)),
			P90:  ms(percentile(all, 0.90)),
			P99:  ms(percentile(all, 0.99)),
			Max:  ms(all[len(all)-1]),
		}
	}
	if elapsed > 0 {
		rep.AchievedQPS = float64(rep.Totals.Requests) / elapsed.Seconds()
	}
	rep.SLO = SLO{ThresholdMS: cfg.sloMS}
	if len(all) > 0 {
		rep.SLO.WithinFraction = float64(within) / float64(len(all))
		rep.SLO.QPSWithinSLO = rep.AchievedQPS * rep.SLO.WithinFraction
	}
	for _, k := range order {
		ka := kinds[k]
		ls := ka.lats
		// per-kind latencies were appended in completion order; sort for
		// the percentile cuts.
		sortDurations(ls)
		ka.stats.P50MS = ms(percentile(ls, 0.50))
		ka.stats.P99MS = ms(percentile(ls, 0.99))
		rep.ByKind = append(rep.ByKind, ka.stats)
	}
	return rep
}

func sortDurations(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

// write persists the report atomically (temp + fsync + rename), so a
// crash mid-run never leaves a half-written artifact.
func (r *Report) write(path string) error {
	return persist.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}

// summary is the one human-readable line printed after a run.
func (r *Report) summary() string {
	return fmt.Sprintf(
		"loadgen: %d reqs in %.1fs (%.1f qps) | answered %d, denied %d (%.1f%%), 4xx %d, 5xx %d, transport %d | p50 %.2fms p99 %.2fms | %.1f qps within %.0fms SLO (%.1f%%)",
		r.Totals.Requests, r.Workload.DurationSec, r.AchievedQPS,
		r.Totals.Answered, r.Totals.Denied, 100*r.Totals.DenialRate,
		r.Totals.HTTP4xx, r.Totals.HTTP5xx, r.Totals.TransportErrors,
		r.LatencyMS.P50, r.LatencyMS.P99,
		r.SLO.QPSWithinSLO, r.SLO.ThresholdMS, 100*r.SLO.WithinFraction)
}
