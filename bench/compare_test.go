package main

import (
	"io"
	"math"
	"testing"
)

// metricBound is the bound BENCHMARK.json gives a metric: the largest of
// its pairs' bounds, at most maxBound.
func metricBound(c calibration, name string) float64 {
	b := 0.0
	for _, p := range c.Pairs {
		if p.Metric == name {
			b = math.Max(b, pairBound(p.Range))
		}
	}
	return math.Min(b, maxBound)
}

func TestVerdictRules(t *testing.T) {
	lat := gate{better: "lower", bound: 0.10}
	tput := gate{better: "higher", bound: 0.10}
	floored := gate{better: "lower", bound: 0.10, floor: 2}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8}
	cases := []struct {
		name string
		g    gate
		base []float64
		head []float64
		want string
	}{
		{"within bound", lat, steady, []float64{10.5, 10.6, 10.4}, "unchanged"},
		{"slower beyond bound", lat, steady, []float64{11.5, 11.6, 11.4}, "worse"},
		{"faster beyond bound", lat, steady, []float64{8.5, 8.6, 8.4}, "better"},
		{"floor absorbs a small absolute move", floored, steady, []float64{11.5, 11.6, 11.4}, "unchanged"},
		{"higher is better", tput, steady, []float64{8.5, 8.6, 8.4}, "worse"},
		{"higher is better, gain", tput, steady, []float64{11.5, 11.6, 11.4}, "better"},
		{"noisy base is unresolved", lat, []float64{5, 15, 10, 6, 14}, []float64{13, 14, 12}, "unresolved"},
		{"noisy base, head beats every run", lat, []float64{5, 15, 10, 6, 14}, []float64{4, 3, 4.5}, "better"},
	}
	for _, c := range cases {
		if got := verdict(c.g, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPairBoundsFollowCalibration(t *testing.T) {
	cal := calibration{Pairs: []calibrated{
		{Workload: "wide-3k", Metric: "latency_p50_ms", Range: 0.04},
		{Workload: "narrow-300", Metric: "latency_p50_ms", Range: 0.12},
		{Workload: "churn-1k", Metric: "latency_p50_ms", Range: 0.30},
	}}
	spec := metricSpec{Name: "latency_p50_ms", Better: "lower"}
	for _, c := range []struct {
		workload string
		bound    float64
		noisy    bool
	}{{"wide-3k", 0.10, false}, {"narrow-300", 0.18, false}, {"churn-1k", 0.45, true}} {
		g, err := cal.gateFor(c.workload, spec)
		if err != nil {
			t.Fatal(err)
		}
		if g.bound < c.bound-1e-9 || g.bound > c.bound+1e-9 || g.noisy() != c.noisy || g.floor != floors[spec.Name] {
			t.Errorf("%s: gate %+v, want bound %.2f noisy %v", c.workload, g, c.bound, c.noisy)
		}
	}
	if _, err := cal.gateFor("prob-300", spec); err == nil {
		t.Error("an uncalibrated pair got a gate")
	}
	if got := metricBound(cal, "latency_p50_ms"); got != maxBound {
		t.Errorf("metric bound %.2f, want the cap %.2f", got, maxBound)
	}
}

// TestBenchmarkFileMatchesCalibration checks that every (workload,
// end-to-end metric) pair is calibrated and that each bound in
// BENCHMARK.json is the one the calibration gives its metric.
func TestBenchmarkFileMatchesCalibration(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := loadCalibration()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.EndToEnd {
		for _, w := range workloads {
			if _, err := cal.gateFor(w.name, m); err != nil {
				t.Error(err)
			}
		}
		if want := metricBound(cal, m.Name); m.Bound < want-1e-9 || m.Bound > want+1e-9 {
			t.Errorf("BENCHMARK.json bound of %s is %.4g, calibration gives %.4g", m.Name, m.Bound, want)
		}
	}
	for _, w := range workloads {
		if cal.Digests[w.name] == "" {
			t.Errorf("no decisions digest pinned for %s", w.name)
		}
	}
}

func TestCompareFailsOnWorseOrDigestChange(t *testing.T) {
	specs := []metricSpec{{Name: "latency_p50_ms", Better: "lower"}}
	cal := calibration{Pairs: []calibrated{{Workload: "wide-3k", Metric: "latency_p50_ms", Median: 10, Range: 0.05}}}
	rec := func(digest string, v float64) record {
		return record{Workload: "wide-3k", Seed: 1, Seconds: 10, Digest: digest,
			result: result{Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}}}
	}
	base := []record{rec("a", 10), rec("a", 10.1), rec("a", 9.9)}
	for _, c := range []struct {
		name string
		head []record
		want bool
	}{
		{"identical code", []record{rec("a", 10.2), rec("a", 9.8)}, true},
		{"a 30% slowdown", []record{rec("a", 13), rec("a", 13.1)}, false},
		{"a different decisions digest", []record{rec("b", 10), rec("b", 10)}, false},
	} {
		ok, err := compareRecords(io.Discard, specs, cal, base, c.head)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want {
			t.Errorf("%s: passed=%v, want %v", c.name, ok, c.want)
		}
	}
}
