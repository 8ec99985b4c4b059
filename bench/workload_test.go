package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestScheduleIsByteIdenticalPerSeed(t *testing.T) {
	for _, w := range workloads {
		encode := func(seed int64) []byte {
			p, err := generate(w, seed, 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b, c := encode(7), encode(7), encode(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two schedules from seed 7 differ", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w.name)
		}
	}
}

func TestRealizedKindMixMatchesWeights(t *testing.T) {
	const draws = 10_000
	for _, w := range workloads {
		total := 0
		for _, m := range w.mix {
			total += m.weight
		}
		pick := newPicker(rng(3, 2), w)
		got := make([]int, len(w.mix))
		for i := 0; i < draws; i++ {
			got[pick()/w.statements]++
		}
		for k, m := range w.mix {
			want := float64(m.weight) / float64(total)
			if share := float64(got[k]) / draws; math.Abs(share-want) > 0.02 {
				t.Errorf("%s: %s share %.3f, want %.3f ± 0.02", w.name, m.kind, share, want)
			}
		}
	}
}

func TestPoolStatementsSelectRowsAndUpdatesAreFresh(t *testing.T) {
	for _, w := range workloads {
		p, err := generate(w, 11, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range p.Pool {
			if len(st.q.Set) == 0 {
				t.Errorf("%s: %q selects no rows", w.name, st.SQL)
			}
		}
		seen := map[float64]bool{}
		for _, v := range w.stackConfig().NewDataset().Values() {
			seen[v] = true
		}
		for _, it := range p.Open {
			if it.Update {
				if seen[it.Value] {
					t.Errorf("%s: update value %v is already in the table", w.name, it.Value)
				}
				seen[it.Value] = true
			}
		}
	}
}
