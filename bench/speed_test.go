package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve the reference work's HTTP side, as
// the benchmark's binary does, when a test starts it as the child.
func TestMain(m *testing.M) {
	if os.Getenv(refServerEnv) != "" {
		serveReference()
	}
	os.Exit(m.Run())
}

func TestReferenceSamplesAndStops(t *testing.T) {
	r, err := startReference(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.sample(); err != nil {
		r.stop()
		t.Fatal(err)
	}
	r.stop()
	if r.cmd.ProcessState == nil {
		t.Error("stop returned before the reference server exited")
	}
	if len(r.samples) != refReps {
		t.Errorf("%d timings, want %d", len(r.samples), refReps)
	}
	if f := r.factor(); !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("factor %v", f)
	}
}

func TestUndisturbedRounds(t *testing.T) {
	var rounds []round
	for x := 1.0; x <= 4; x++ {
		rounds = append(rounds, round{figures: map[string]metric{"x": {x, "ms"}}})
	}
	two := stealSample{ticks: 100, cpus: 2}
	// 10 s on two CPUs is 2000 ticks: 40 stolen is exactly the limit.
	if got := stolenShare(two, stealSample{ticks: 140, cpus: 2}, 10*time.Second); math.Abs(got-maxStolen) > 1e-12 {
		t.Fatalf("stolenShare = %v, want %v", got, maxStolen)
	}
	if got := stolenShare(stealSample{}, stealSample{}, time.Second); got != 0 {
		t.Errorf("no steal column: share %v, want 0", got)
	}
	if got := undisturbed(rounds, []float64{0, 0.05, maxStolen, 0.03}); len(got) != 2 || got[0].figures["x"].Value != 1 || got[1].figures["x"].Value != 3 {
		t.Errorf("undisturbed kept %v, want rounds 0 and 2", got)
	}
	if got := undisturbed(rounds, []float64{0.05, 0.05, 0, 0.05}); len(got) != len(rounds) {
		t.Errorf("one undisturbed round: kept %d rounds, want all %d", len(got), len(rounds))
	}
}

func TestScaleToReference(t *testing.T) {
	figures := map[string]metric{
		"setup_s":        {2, "s"},
		"latency_p50_ms": {1, "ms"},
		"throughput_rps": {100, "1/s"},
		"slo_attainment": {0.5, "ratio"},
	}
	scaleToReference(figures, 2)
	s := math.Pow(2, refExponent)
	want := map[string]float64{"setup_s": 2 / s, "latency_p50_ms": 1 / s, "throughput_rps": 100 * s, "slo_attainment": 0.5}
	for n, v := range want {
		if math.Abs(figures[n].Value-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", n, figures[n].Value, v)
		}
	}
}
