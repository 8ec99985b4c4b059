package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

const (
	// minBound is the smallest bound a pair gets, however steady its
	// calibration runs were.
	minBound = 0.10
	// maxBound is the largest bound BENCHMARK.json may give a metric. A
	// pair whose calibrated bound exceeds it is noisy: -compare gates it
	// with its own measured bound, and BENCHMARK.json gives the metric
	// maxBound.
	maxBound = 0.25
)

// floors are the absolute changes below which -compare calls no metric
// better or worse, whatever its relative bound: on sub-millisecond
// latencies, timer wake-ups and the 10 ms CPU clock tick are absolute,
// and the heap's peak moves by whole spans with the collector's timing.
var floors = map[string]float64{
	"setup_s":        0.05,
	"latency_p50_ms": 0.05,
	"cpu_ms_per_req": 0.005,
	"peak_rss_mb":    8,
}

// pairBound is the share by which a (workload, metric) pair may worsen
// before -compare calls it worse: max(10%, 1.5 × the calibration range).
func pairBound(rng float64) float64 { return math.Max(minBound, 1.5*rng) }

// gate is the rule -compare applies to one (workload, metric) pair.
type gate struct {
	better string  // "lower" or "higher"
	bound  float64 // relative to the base median
	floor  float64 // absolute
}

func (g gate) noisy() bool { return g.bound > maxBound }

// gateFor derives a pair's gate from the calibration.
func (c calibration) gateFor(workload string, m metricSpec) (gate, error) {
	for _, p := range c.Pairs {
		if p.Workload == workload && p.Metric == m.Name {
			return gate{better: m.Better, bound: pairBound(p.Range), floor: floors[m.Name]}, nil
		}
	}
	return gate{}, fmt.Errorf("calibration.json has no %s on %s", m.Name, workload)
}

// verdict classifies head against base for one pair. The change counts
// only beyond max(bound × base median, floor). When the base runs' own
// spread (interquartile range over median) exceeds the bound the pair is
// unresolved, unless every head run beats every base run.
func verdict(g gate, base, head []float64) string {
	bm, hm := median(base), median(head)
	gain := bm - hm // positive: head is better
	if g.better == "higher" {
		gain = -gain
	}
	if spread(base) > g.bound {
		if beatsAll(g.better, head, base) {
			return "better"
		}
		return "unresolved"
	}
	thr := math.Max(g.bound*math.Abs(bm), g.floor)
	switch {
	case gain > thr:
		return "better"
	case -gain > thr:
		return "worse"
	}
	return "unchanged"
}

// beatsAll reports whether every head value is better than every base
// value.
func beatsAll(better string, head, base []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if (better == "lower" && h >= b) || (better == "higher" && h <= b) {
				return false
			}
		}
	}
	return true
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runCompare prints a verdict for every (workload, end-to-end metric)
// pair found in both files and reports whether the head passes: no pair
// worse and no decisions digest that differs for the same workload and
// seed.
func runCompare(w io.Writer, root, basePath, headPath string) (bool, error) {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	cal, err := loadCalibration()
	if err != nil {
		return false, err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return false, err
	}
	return compareRecords(w, bf.EndToEnd, cal, base, head)
}

func compareRecords(w io.Writer, specs []metricSpec, cal calibration, base, head []record) (bool, error) {
	ok := true
	// A record's digest is its first round's, which only the workload
	// and the seed decide.
	type key struct {
		workload string
		seed     int64
	}
	digests := map[key]string{}
	for _, r := range base {
		if r.Trace == 0 {
			digests[key{r.Workload, r.Seed}] = r.Digest
		}
	}
	for _, r := range head {
		if d, found := digests[key{r.Workload, r.Seed}]; found && r.Trace == 0 && d != r.Digest {
			fmt.Fprintf(w, "FAIL %s seed %d: decisions digest %s, base had %s\n", r.Workload, r.Seed, r.Digest, d)
			ok = false
		}
	}
	values := func(rs []record, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, found := r.Metrics[name]; found && r.Workload == workload && r.Trace == 0 {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-11s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "head", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range specs {
			bv, hv := values(base, wl.name, m.Name), values(head, wl.name, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			g, err := cal.gateFor(wl.name, m)
			if err != nil {
				return false, err
			}
			v := verdict(g, bv, hv)
			if v == "worse" {
				ok = false
			}
			tag := ""
			if g.noisy() {
				tag = ", noisy"
			}
			bm, hm := median(bv), median(hv)
			fmt.Fprintf(w, "%-11s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%  %s (spread %.1f%%, n=%d/%d%s)\n",
				wl.name, m.Name, bm, hm, 100*(hm-bm)/math.Abs(bm), 100*g.bound, v, 100*spread(bv), len(bv), len(hv), tag)
		}
	}
	return ok, nil
}
