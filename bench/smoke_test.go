package main

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload drives the real auditserver binary through every
// workload, end-to-end (the fewest rounds a run makes) and traced (one
// round), and checks each passes every check and reports exactly the
// metrics BENCHMARK.json lists. Each round's open phase is as long as 50
// requests take: fewer requests may hold no query of some aggregate
// kind, whose per-kind figures then cannot be measured. churn-1k's update
// barriers are spaced over the round whatever its length, so the short
// rounds still send them.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real server")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloads {
		w.round = time.Duration(50 / w.rate * float64(time.Second))
		p, err := generate(w, 1, w.round)
		if err != nil {
			t.Fatal(err)
		}
		ups := 0
		for _, it := range p.Open {
			if it.Update {
				ups++
			}
		}
		if ups != w.updates {
			t.Errorf("%s: %d updates in a %s round, want %d", w.name, ups, w.round, w.updates)
		}
		for _, trace := range []bool{false, true} {
			specs := bf.EndToEnd
			if trace {
				specs = bf.PerLayer
			}
			rep, err := run(runConfig{w: w, seed: 1, trace: trace, nproc: runtime.NumCPU(), bin: bin, metrics: specs})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%v", w.name, trace, rep.Correct, rep.Attempted, rep.failures)
			}
			var got, want []string
			for n := range rep.Metrics {
				got = append(got, n)
			}
			for _, s := range specs {
				want = append(want, s.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v: metrics\n%v\nwant\n%v", w.name, trace, got, want)
			}
		}
	}
	// Not asserted: on a shared machine the time varies with the load.
	t.Logf("smoke runs took %s", time.Since(start).Round(time.Millisecond))
}
