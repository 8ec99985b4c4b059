package session

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// stepClock is an injected Clock that advances by step on every read, so
// every touch gets a distinct, increasing timestamp.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *stepClock) read() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// checkLRU walks the recency list and fails t unless it holds exactly
// the tracked live sessions, most recently touched first, with
// consistent back links. Without a MaxLive cap the list must be empty.
func checkLRU(t *testing.T, m *Manager) {
	t.Helper()
	var list []*Session
	broken := ""
	m.lruMu.Lock()
	prev := &m.lru
	for s := m.lru.lruNext; s != &m.lru; s = s.lruNext {
		if s == nil || s.lruPrev != prev {
			broken = "back link mismatch"
			break
		}
		list = append(list, s)
		prev = s
	}
	if broken == "" && m.lru.lruPrev != prev {
		broken = "sentinel tail mismatch"
	}
	m.lruMu.Unlock()
	if broken != "" {
		t.Fatalf("recency list: %s", broken)
	}
	want := map[*Session]bool{}
	for idx, sh := range m.shards {
		m.lockShard(sh, idx)
		for _, s := range sh.sessions {
			if m.cfg.MaxLive > 0 && s.liveFlag.Load() {
				want[s] = true
			}
		}
		sh.mu.Unlock()
	}
	if len(list) != len(want) {
		t.Fatalf("recency list has %d sessions, want %d live", len(list), len(want))
	}
	for i, s := range list {
		if !want[s] {
			t.Fatalf("recency list holds %q, which is not a tracked live session", s.analyst)
		}
		if i > 0 && list[i-1].lastTouch.Load() <= s.lastTouch.Load() {
			t.Fatalf("recency list out of order at %d: %q touched no later than %q", i, list[i-1].analyst, s.analyst)
		}
	}
}

// TestLRUListInvariant drives seeded random sequences of every operation
// that touches, materializes, evicts or removes sessions and checks the
// recency list after each step.
func TestLRUListInvariant(t *testing.T) {
	vals := []float64{3, 1, 4, 1.5, 5, 9, 2, 6}
	n := len(vals)
	kinds := []query.Kind{query.Sum, query.Max, query.Min}
	randomQuery := func(rng *rand.Rand) query.Query {
		return query.New(kinds[rng.Intn(len(kinds))], randx.SubsetSizeBetween(rng, n, 2, n)...)
	}
	for _, maxLive := range []int{0, 1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("maxlive=%d/seed=%d", maxLive, seed), func(t *testing.T) {
				rng := randx.New(seed)
				// Source journals for Restore.
				src := newTestManager(t, Config{}, vals)
				var srcSnaps []LogSnapshot
				for i := 0; i < 4; i++ {
					a := fmt.Sprintf("a%d", i)
					for j := 0; j <= i; j++ {
						if _, err := src.Ask(a, randomQuery(rng)); err != nil {
							t.Fatal(err)
						}
					}
					snap, _ := src.Export(a)
					srcSnaps = append(srcSnaps, snap)
				}
				clk := &stepClock{now: time.Unix(1000, 0), step: time.Second}
				m := newTestManager(t, Config{MaxLive: maxLive, TTL: 40 * time.Second, Clock: clk.read}, vals)
				checkLRU(t, m)
				for step := 0; step < 300; step++ {
					a := fmt.Sprintf("a%d", rng.Intn(8))
					switch op := rng.Intn(8); op {
					case 0, 1, 2:
						if _, err := m.Ask(a, randomQuery(rng)); err != nil {
							t.Fatalf("step %d: ask %s: %v", step, a, err)
						}
					case 3:
						m.EvictEngine(a)
					case 4:
						m.Drop(a)
					case 5:
						m.Sweep(clk.read())
					case 6:
						if err := m.Restore([]LogSnapshot{srcSnaps[rng.Intn(len(srcSnaps))]}); err != nil {
							t.Fatalf("step %d: restore: %v", step, err)
						}
					case 7:
						if _, err := m.Ask(DefaultAnalyst, randomQuery(rng)); err != nil {
							t.Fatalf("step %d: ask default: %v", step, err)
						}
					}
					checkLRU(t, m)
					if maxLive > 0 && m.Live() > maxLive {
						t.Fatalf("step %d: live=%d exceeds MaxLive=%d", step, m.Live(), maxLive)
					}
				}
			})
		}
	}
}

// lruManager is a MaxLive-capped manager on an injected step clock.
func lruManager(t *testing.T, maxLive int) *Manager {
	t.Helper()
	clk := &stepClock{now: time.Unix(1000, 0), step: time.Millisecond}
	return newTestManager(t, Config{MaxLive: maxLive, Clock: clk.read}, []float64{1, 2, 3, 4})
}

func askOrFatal(t *testing.T, m *Manager, analysts ...string) {
	t.Helper()
	for _, a := range analysts {
		if _, err := m.Ask(a, query.New(query.Count, 0)); err != nil {
			t.Fatalf("ask %s: %v", a, err)
		}
	}
}

// liveSet reports which of the analysts have a materialized engine.
func liveSet(m *Manager, analysts ...string) map[string]bool {
	out := map[string]bool{}
	for _, a := range analysts {
		out[a] = m.Stats(a).Live
	}
	return out
}

// TestLRUVictimIsLeastRecentlyTouched: at capacity the engine dropped is
// the one touched longest ago, and a hit refreshes a session's place.
func TestLRUVictimIsLeastRecentlyTouched(t *testing.T) {
	m := lruManager(t, 3)
	askOrFatal(t, m, "a", "b") // default, a, b live
	askOrFatal(t, m, "c")      // evicts default
	askOrFatal(t, m, "a")      // hit: a is now the most recent
	askOrFatal(t, m, "d")      // evicts b, the least recently touched
	got := liveSet(m, DefaultAnalyst, "a", "b", "c", "d")
	want := map[string]bool{DefaultAnalyst: false, "a": true, "b": false, "c": true, "d": true}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live engines %v, want %v", got, want)
	}
	checkLRU(t, m)
}

// TestLRUSkipsBusySession: a session whose mutex is held (an in-flight
// request) is passed over, and the next least recent one is evicted.
func TestLRUSkipsBusySession(t *testing.T) {
	m := lruManager(t, 3)
	askOrFatal(t, m, "a", "b") // default, a, b live; default is the tail
	busy := m.peek(DefaultAnalyst)
	busy.mu.Lock()
	askOrFatal(t, m, "c") // default busy: a is evicted instead
	busy.mu.Unlock()
	got := liveSet(m, DefaultAnalyst, "a", "b", "c")
	want := map[string]bool{DefaultAnalyst: true, "a": false, "b": true, "c": true}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live engines %v, want %v", got, want)
	}
	checkLRU(t, m)
}

// TestAdmissionCapConcurrent: new analysts racing on different shards
// never push the tracked count past MaxSessions.
func TestAdmissionCapConcurrent(t *testing.T) {
	const limit, callers = 16, 64
	m := newTestManager(t, Config{MaxSessions: limit}, []float64{1, 2, 3, 4})
	if !m.Drop(DefaultAnalyst) {
		t.Fatal("dropping the default session failed")
	}
	var admitted, refused atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			_, err := m.Ask(fmt.Sprintf("analyst-%02d", g), query.New(query.Count, 0))
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrTooManySessions):
				refused.Add(1)
			default:
				t.Error(err)
			}
			if n := m.Tracked(); n > limit {
				t.Errorf("tracked=%d exceeds MaxSessions=%d", n, limit)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if admitted.Load() != limit || refused.Load() != callers-limit {
		t.Fatalf("admitted %d, refused %d; want %d and %d", admitted.Load(), refused.Load(), limit, callers-limit)
	}
	if m.Tracked() != limit {
		t.Fatalf("tracked=%d, want %d", m.Tracked(), limit)
	}
}

// TestRestoreBuildsOncePerJournal: restoring a journal builds one engine
// and evicts at most one, and lands every session at its source position.
func TestRestoreBuildsOncePerJournal(t *testing.T) {
	vals := []float64{2, 4, 6, 8, 10, 12}
	n := len(vals)
	src := newTestManager(t, Config{}, vals)
	rng := randx.New(7)
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			set := randx.SubsetSizeBetween(rng, n, 2, n)
			if _, err := src.Ask(fmt.Sprintf("analyst-%d", i), query.New(query.Sum, set...)); err != nil {
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
	if len(snaps) != 10 {
		t.Fatalf("%d journals, want 10", len(snaps))
	}

	var builds atomic.Int64
	sp := core.NewEngineSpec(dataset.FromValues(vals))
	sp.Register(func() (audit.Auditor, error) { builds.Add(1); return sumfull.New(n), nil }, query.Sum)
	sp.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
	reg := metrics.NewRegistry()
	m, err := NewManager(sp, Config{MaxLive: 4, Observer: metrics.NewSessionCollector(reg, 16), NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.EvictEngine(DefaultAnalyst) {
		t.Fatal("evicting the default engine failed")
	}
	builds.Store(0)
	evictedBefore := metric(reg, "sessions_evicted_total")

	if err := m.Restore(snaps); err != nil {
		t.Fatal(err)
	}
	if b := builds.Load(); b != 10 {
		t.Fatalf("restore built %d engines, want 10", b)
	}
	if evicted := metric(reg, "sessions_evicted_total") - evictedBefore; evicted != 6 {
		t.Fatalf("restore evicted %d engines, want 6", evicted)
	}
	for _, snap := range snaps {
		wantSeq, wantDigest, _ := src.PositionOf(snap.Analyst)
		seq, d, ok := m.PositionOf(snap.Analyst)
		if !ok || seq != wantSeq || d != wantDigest {
			t.Fatalf("%s restored at (%d, %s), source at (%d, %s)", snap.Analyst, seq, d.Hex(), wantSeq, wantDigest.Hex())
		}
	}
	checkLRU(t, m)
}
