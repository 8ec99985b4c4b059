package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRankPercentileCountsFailuresAsInf(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2, 4}, 50, 2},
		{[]float64{3, 1, 2, 4}, 75, 3},
		{[]float64{3, 1, 2, 4}, 76, 4},
		{[]float64{inf, 1, 2, 3}, 75, 3},
		{[]float64{inf, 1, 2, 3}, 99, inf},
		{[]float64{inf, inf, 1, 2}, 50, 2},
		{[]float64{inf, inf, 1, 2}, 51, inf},
		{[]float64{5}, 1, 5},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestTallyPoolsEveryRequest(t *testing.T) {
	// A short round and a long one: pooled, every request weighs alike.
	var pooled tally
	pooled.add(tally{lat: []float64{1, 9}, within: 1, ok: 10, busy: time.Second, ticks: 10, queries: 20})
	pooled.add(tally{lat: []float64{2, 3, 4, 5, 6, 7}, within: 6, ok: 90, busy: 4 * time.Second, ticks: 50, queries: 80})
	want := map[string]float64{
		"latency_p50_ms": 4,
		"latency_p99_ms": 9,
		"slo_attainment": 7.0 / 8,
		"throughput_rps": 100.0 / 5,
		"cpu_ms_per_req": 600.0 / 100,
	}
	got := pooled.metrics()
	for n, v := range want {
		if math.Abs(got[n].Value-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", n, got[n].Value, v)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
