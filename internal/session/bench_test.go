package session

import (
	"fmt"
	"sync/atomic"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// openAuditor answers everything — a stub that reduces Ask to pure
// session-layer cost (shard lookup, session lock, journal append), so
// BenchmarkSessionLookup measures the manager, not the auditors.
type openAuditor struct{}

func (openAuditor) Name() string                               { return "open" }
func (openAuditor) Decide(query.Query) (audit.Decision, error) { return audit.Answer, nil }
func (openAuditor) Record(query.Query, float64)                {}

func benchValues(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	return vals
}

// BenchmarkSessionLookup: hot-path routing cost (shard lookup, session
// lock, journal append) with many live sessions under parallel load,
// auditor cost stubbed out.
func BenchmarkSessionLookup(b *testing.B) {
	const analysts = 256
	sp := core.NewEngineSpec(dataset.FromValues(benchValues(64)))
	sp.Register(func() (audit.Auditor, error) { return openAuditor{}, nil }, query.Sum)
	m, err := NewManager(sp, Config{Shards: 16, NoJanitor: true})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	names := make([]string, analysts)
	q := query.New(query.Sum, 1, 2, 3)
	for i := range names {
		names[i] = fmt.Sprintf("analyst-%03d", i)
		if _, err := m.Ask(names[i], q); err != nil {
			b.Fatal(err)
		}
	}
	var rr atomic.Int64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			a := names[int(rr.Add(1))%analysts]
			if _, err := m.Ask(a, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionChurn: 1000 analysts cycling through a MaxLive=64
// manager with the real full-disclosure auditors — every miss pays an
// engine build plus a journal replay, the worst-case steady state of an
// over-subscribed deployment. Each analyst works through a fixed list of
// churnDepth queries and then starts a fresh timeline, so journals stay
// bounded and ns/op does not depend on b.N. One full cycle runs before
// the timer starts, so every timed op sees the steady state.
func BenchmarkSessionChurn(b *testing.B) {
	const analysts, churnDepth = 1000, 8
	rng := randx.New(3)
	qs := make([]query.Query, churnDepth)
	for i := range qs {
		perm := rng.Perm(32)
		qs[i] = query.New(query.Sum, perm[:4+rng.Intn(8)]...)
	}
	names := make([]string, analysts)
	for i := range names {
		names[i] = fmt.Sprintf("analyst-%04d", i)
	}
	m, err := NewManager(fullSpec(dataset.FromValues(benchValues(32))), Config{
		MaxLive: 64, Shards: 16, NoJanitor: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	step := func(i int) {
		a, k := names[i%analysts], (i/analysts)%churnDepth
		if k == 0 {
			m.Drop(a) // start the analyst's next timeline
		}
		if _, err := m.Ask(a, qs[(k+i)%churnDepth]); err != nil {
			b.Fatal(err)
		}
	}
	const warm = analysts * churnDepth
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := warm; i < warm+b.N; i++ {
		step(i)
	}
}

// BenchmarkSessionEvictAtCapacity: the cost of one materialization at
// the MaxLive cap, as a function of how many sessions are tracked.
// Analysts are visited round-robin, so every op misses: it evicts the
// least recently used engine and rebuilds the analyst's own from an
// empty journal (Knowledge materializes without journaling, so the
// state never grows). With eviction O(1) in tracked sessions, both
// sub-benchmarks read the same ns/op.
func BenchmarkSessionEvictAtCapacity(b *testing.B) {
	for _, tracked := range []int{256, 4096} {
		b.Run(fmt.Sprintf("tracked=%d", tracked), func(b *testing.B) {
			sp := core.NewEngineSpec(dataset.FromValues(benchValues(64)))
			sp.Register(func() (audit.Auditor, error) { return openAuditor{}, nil }, query.Sum)
			m, err := NewManager(sp, Config{MaxLive: 64, Shards: 16, NoJanitor: true})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			names := make([]string, tracked)
			for i := range names {
				names[i] = fmt.Sprintf("analyst-%04d", i)
				if _, err := m.Knowledge(names[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Knowledge(names[i%tracked]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
