package session

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// atLeastTwoProcs raises GOMAXPROCS to 2 for the rest of t, so a restore
// in it replays on more than one goroutine.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if p := runtime.GOMAXPROCS(0); p < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(p) })
	}
}

// lruOrder lists the live sessions from most to least recently used.
func lruOrder(m *Manager) []string {
	m.lruMu.Lock()
	defer m.lruMu.Unlock()
	var out []string
	for s := m.lru.lruNext; s != &m.lru; s = s.lruNext {
		out = append(out, s.analyst)
	}
	return out
}

// churnedSnapshots plays analysts queries each over vals, with an update
// barrier every fifth analyst, and returns every journal but the default
// one in a seeded shuffled order.
func churnedSnapshots(t *testing.T, vals []float64, analysts, queries int, seed int64) []LogSnapshot {
	t.Helper()
	src := newTestManager(t, Config{MaxLive: 8}, vals)
	rng := randx.New(seed)
	kinds := []query.Kind{query.Sum, query.Max, query.Min}
	for a := 0; a < analysts; a++ {
		for k := 0; k < queries; k++ {
			q := query.New(kinds[rng.Intn(len(kinds))], randx.SubsetSizeBetween(rng, len(vals), 2, len(vals))...)
			if _, err := src.Ask(fmt.Sprintf("analyst-%02d", a), q); err != nil {
				t.Fatal(err)
			}
		}
		if a%5 == 4 {
			if err := src.Update(rng.Intn(len(vals)), float64(100+a)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snaps []LogSnapshot
	for _, snap := range src.LogSnapshots() {
		if snap.Analyst != DefaultAnalyst {
			snaps = append(snaps, snap)
		}
	}
	rng.Shuffle(len(snaps), func(i, j int) { snaps[i], snaps[j] = snaps[j], snaps[i] })
	return snaps
}

// TestParallelRestoreMatchesOneAtATime: restoring every journal at once
// leaves the same sessions, positions, live set, recency order and
// eviction count as restoring the journals one call at a time.
func TestParallelRestoreMatchesOneAtATime(t *testing.T) {
	atLeastTwoProcs(t)
	vals := randx.DuplicateFreeDataset(randx.New(3), 24, 0, 50)
	snaps := churnedSnapshots(t, vals, 40, 4, 11)
	type outcome struct {
		Positions map[string]string
		Live      map[string]bool
		LRU       []string
		Evicted   int64
	}
	restore := func(oneAtATime bool) outcome {
		reg := metrics.NewRegistry()
		m := newTestManager(t, Config{MaxLive: 7, Observer: metrics.NewSessionCollector(reg, 16)}, vals)
		if oneAtATime {
			for _, snap := range snaps {
				if err := m.Restore([]LogSnapshot{snap}); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := m.Restore(snaps); err != nil {
			t.Fatal(err)
		}
		checkLRU(t, m)
		out := outcome{Positions: map[string]string{}, Live: map[string]bool{}, LRU: lruOrder(m), Evicted: metric(reg, "sessions_evicted_total")}
		for _, info := range m.Sessions() {
			out.Positions[info.Analyst] = fmt.Sprintf("%d/%s", info.Seq, info.Digest)
			out.Live[info.Analyst] = info.Live
		}
		return out
	}
	want := restore(true)
	if len(want.LRU) != 7 || want.Evicted == 0 {
		t.Fatalf("one-at-a-time restore left %d live after %d evictions; the test needs the cap to bind", len(want.LRU), want.Evicted)
	}
	for round := 0; round < 5; round++ {
		if got := restore(false); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: parallel restore left %+v, one at a time %+v", round, got, want)
		}
	}
}

// countingManager is a test manager whose sum auditor factory counts
// the engines it builds.
func countingManager(t *testing.T, vals []float64, builds *atomic.Int64) *Manager {
	t.Helper()
	n := len(vals)
	sp := core.NewEngineSpec(dataset.FromValues(vals))
	sp.Register(func() (audit.Auditor, error) { builds.Add(1); return sumfull.New(n), nil }, query.Sum)
	sp.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
	m, err := NewManager(sp, Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestRestoreRefusesBeforeWork: a duplicate analyst or a journal that
// fails its checks is refused before any engine is built or any session
// changes, wherever it sits in the snapshot.
func TestRestoreRefusesBeforeWork(t *testing.T) {
	atLeastTwoProcs(t)
	vals := randx.DuplicateFreeDataset(randx.New(5), 12, 0, 50)
	snaps := churnedSnapshots(t, vals, 9, 3, 13)
	tampered := append([]LogSnapshot(nil), snaps...)
	last := tampered[len(tampered)-1]
	last.Seq++
	tampered[len(tampered)-1] = last
	for name, bad := range map[string][]LogSnapshot{
		"duplicate": append(append([]LogSnapshot(nil), snaps...), snaps[0]),
		"tampered":  tampered,
	} {
		var builds atomic.Int64
		m := countingManager(t, vals, &builds)
		builds.Store(0)
		before := lruOrder(m)
		if err := m.Restore(bad); err == nil {
			t.Fatalf("%s: restored", name)
		}
		if b := builds.Load(); b != 0 || m.Tracked() != 1 || !reflect.DeepEqual(lruOrder(m), before) {
			t.Fatalf("%s: refused restore built %d engines and left %d sessions", name, b, m.Tracked())
		}
	}
}

// TestRestoreReportsLowestFailingJournal: when several journals pass
// their checks but fail replay, the error names the first of them, and
// the journals before it are installed.
func TestRestoreReportsLowestFailingJournal(t *testing.T) {
	atLeastTwoProcs(t)
	vals := randx.DuplicateFreeDataset(randx.New(8), 12, 0, 50)
	good := churnedSnapshots(t, vals, 12, 3, 17)
	// A single-row sum cannot be answered: its replay diverges.
	diverging := func(analyst string) LogSnapshot {
		return LogSnapshot{Analyst: analyst, Events: []EventSnapshot{{Op: "query", Kind: "sum", Indices: Indices{3}, Outcome: "answered", Answer: 1}}}
	}
	snaps := append([]LogSnapshot(nil), good[:6]...)
	snaps = append(snaps, diverging("first-bad"))
	snaps = append(snaps, good[6:]...)
	snaps = append(snaps, diverging("second-bad"))
	for round := 0; round < 10; round++ {
		var builds atomic.Int64
		m := countingManager(t, vals, &builds)
		err := m.Restore(snaps)
		if err == nil || !strings.Contains(err.Error(), `"first-bad"`) {
			t.Fatalf("round %d: error %v, want first-bad's", round, err)
		}
		for _, snap := range good[:6] {
			if _, _, ok := m.PositionOf(snap.Analyst); !ok {
				t.Fatalf("round %d: %s, before the failing journal, was not installed", round, snap.Analyst)
			}
		}
	}
}
