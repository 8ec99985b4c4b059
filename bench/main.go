// Command bench is the repository's end-to-end benchmark. For one
// workload it builds ./cmd/auditserver from the working tree, drives the
// real process over loopback with requests generated from the seed,
// checks every answer against its own copy of the table, restarts the
// server from its session snapshot to time set-up, and prints every
// metric by name with its unit. With --trace 1 it also replays the same
// requests in-process through four depths of the stack and prints the
// per-layer metrics instead.
//
//	bash bench/run.sh --workload wide-3k --seed 1 --seconds 30 --trace 0
//	go run . --workload churn-1k --seed 3 --trace 1 --trace-out spans.json   (from bench/)
//	go run . --compare base.jsonl head.jsonl
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// calibration.json holds, for every (workload, end-to-end metric) pair,
// the median and range of a calibration set of runs, from which -compare
// derives the pair's bound, and pins the decisions digest of each
// workload's first round at one seed.
//
//go:embed calibration.json
var calibrationJSON []byte

type calibration struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
	Pairs   []calibrated      `json:"pairs"`
}

// calibrated is one pair's calibration: Range is (max - min) / median.
type calibrated struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Median   float64 `json:"median"`
	Range    float64 `json:"range"`
}

func loadCalibration() (calibration, error) {
	var c calibration
	if err := json.Unmarshal(calibrationJSON, &c); err != nil {
		return c, fmt.Errorf("calibration.json: %w", err)
	}
	return c, nil
}

// metricSpec is one metric as BENCHMARK.json defines it; per-layer
// metrics have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark reads: which metrics a run reports.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(root string) (benchmarkFile, error) {
	var f benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return f, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out appends it, for -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Digest   string `json:"digest"`
	result
}

func main() {
	if os.Getenv(refServerEnv) != "" {
		serveReference()
	}
	var (
		name     = flag.String("workload", "", "workload to run: wide-3k, narrow-300, churn-1k or prob-300")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 30, "run length: rounds start while they should end within it (at least 3 rounds)")
		trace    = flag.Int("trace", 0, "1: run one round and replay it in-process through four depths; print per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1, write the recorded spans to this JSON file")
		out      = flag.String("out", "", "append this run's record to a JSON-lines file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: bench --compare base.jsonl head.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench --compare base.jsonl head.jsonl"))
		}
		root, err := repoRoot()
		if err != nil {
			fatal(err)
		}
		ok, err := runCompare(os.Stdout, root, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{
		w: w, seed: *seed, length: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, traceOut: *traceOut, nproc: runtime.NumCPU(), bin: bin,
		metrics: bf.EndToEnd,
	}
	if cfg.trace {
		cfg.metrics = bf.PerLayer
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep.checkPinned()
	for _, line := range rep.info {
		fmt.Println(line)
	}
	for _, f := range rep.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	for _, line := range formatMetrics(rep.Metrics) {
		fmt.Println(line)
	}
	if *out != "" {
		rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Digest: rep.digest, result: rep.result}
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(finite(rep.result))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// checkPinned compares the decisions digest of the run's first round with
// the one pinned for its workload, if the run has the calibration's seed.
func (r *report) checkPinned() {
	c, err := loadCalibration()
	if err != nil {
		r.fail("%v", err)
		return
	}
	if want, ok := c.Digests[r.cfg.w.name]; ok && r.cfg.seed == c.Seed && r.digest != want {
		r.fail("decisions digest %s differs from the pinned %s", r.digest, want)
	}
}

// formatMetrics renders metrics one per line, sorted by name.
func formatMetrics(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%-32s %14.4f %s", n, ms[n].Value, ms[n].Unit)
	}
	return out
}

// finite replaces infinities, which JSON cannot carry; they only arise
// when requests failed, and such a run is already incorrect.
func finite(r result) result {
	out := r
	out.Metrics = make(map[string]metric, len(r.Metrics))
	for n, m := range r.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			m.Value = math.Copysign(math.MaxFloat64, m.Value)
		}
		out.Metrics[n] = m
	}
	return out
}

func appendRecord(path string, rec record) error {
	rec.result = finite(rec.result)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
