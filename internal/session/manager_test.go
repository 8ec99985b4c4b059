package session

import (
	"errors"
	"testing"
	"time"

	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
)

// fullSpec builds the exact-disclosure stack (sumfull + joint maxmin)
// over ds.
func fullSpec(ds *dataset.Dataset) *core.EngineSpec {
	sp := core.NewEngineSpec(ds)
	n := ds.N()
	if err := (core.StackConfig{Family: "full", N: n}).RegisterAuditors(sp); err != nil {
		panic(err)
	}
	return sp
}

// metric reads one counter or gauge from reg.
func metric(reg *metrics.Registry, name string) int64 {
	s := reg.Snapshot()
	if v, ok := s.Counters[name]; ok {
		return v
	}
	return s.Gauges[name]
}

func newTestManager(t *testing.T, cfg Config, vals []float64) *Manager {
	t.Helper()
	cfg.NoJanitor = true
	m, err := NewManager(fullSpec(dataset.FromValues(vals)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestSessionIsolationBasic: one analyst's pinned total never restricts
// another analyst's identical complement.
func TestSessionIsolationBasic(t *testing.T) {
	m := newTestManager(t, Config{}, []float64{1, 2, 3, 4, 5})
	total := query.New(query.Sum, 0, 1, 2, 3, 4)
	rest := query.New(query.Sum, 1, 2, 3, 4)
	if resp, err := m.Ask("alice", total); err != nil || resp.Denied {
		t.Fatalf("alice total: %+v %v", resp, err)
	}
	if resp, err := m.Ask("alice", rest); err != nil || !resp.Denied {
		t.Fatalf("alice complement should be denied: %+v %v", resp, err)
	}
	if resp, err := m.Ask("bob", rest); err != nil || resp.Denied {
		t.Fatalf("bob's first query should be answered: %+v %v", resp, err)
	}
	if st := m.Stats("alice"); st.Answered != 1 || st.Denied != 1 {
		t.Fatalf("alice stats: %+v", st)
	}
	if st := m.Stats("bob"); st.Answered != 1 || st.Denied != 0 {
		t.Fatalf("bob stats: %+v", st)
	}
}

// TestAdmissionControl: beyond MaxSessions new analysts are refused with
// ErrTooManySessions; existing analysts keep working.
func TestAdmissionControl(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newTestManager(t, Config{MaxSessions: 2, Observer: metrics.NewSessionCollector(reg, 16)}, []float64{1, 2, 3})
	q := query.New(query.Count, 0)
	if _, err := m.Ask("alice", q); err != nil { // session 2 of 2 (default is 1)
		t.Fatal(err)
	}
	if _, err := m.Ask("mallory", q); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("third analyst: got %v, want ErrTooManySessions", err)
	}
	if _, err := m.Ask("alice", q); err != nil {
		t.Fatalf("admitted analyst must keep working: %v", err)
	}
	if got := metric(reg, "sessions_rejected_total"); got != 1 {
		t.Fatalf("sessions_rejected_total=%d, want 1", got)
	}
	if m.Tracked() != 2 {
		t.Fatalf("tracked=%d, want 2", m.Tracked())
	}
}

// TestLRUEviction: MaxLive bounds materialized engines; the LRU victim
// is evicted to its log and rebuilt by replay when it returns, with its
// history intact.
func TestLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newTestManager(t, Config{MaxLive: 2, Observer: metrics.NewSessionCollector(reg, 16)}, []float64{1, 2, 3, 4, 5})
	total := query.New(query.Sum, 0, 1, 2, 3, 4)
	rest := query.New(query.Sum, 1, 2, 3, 4)

	if _, err := m.Ask("alice", total); err != nil { // default + alice live
		t.Fatal(err)
	}
	if _, err := m.Ask("bob", query.New(query.Count, 0)); err != nil { // evicts default
		t.Fatal(err)
	}
	if m.Live() != 2 || m.Stats(DefaultAnalyst).Live || !m.Stats("alice").Live {
		t.Fatalf("live=%d, default live %v, alice live %v; want 2, false, true",
			m.Live(), m.Stats(DefaultAnalyst).Live, m.Stats("alice").Live)
	}
	// Evict alice too; her denial decision must be identical post-replay.
	if !m.EvictEngine("alice") {
		t.Fatal("evicting alice failed")
	}
	if resp, err := m.Ask("alice", rest); err != nil || !resp.Denied {
		t.Fatalf("post-replay complement should be denied: %+v %v", resp, err)
	}
	for _, name := range []string{"sessions_evicted_total", "sessions_replayed_total", "session_replay_events_total"} {
		if metric(reg, name) == 0 {
			t.Fatalf("%s = 0, want evictions and replays counted", name)
		}
	}
	if got := metric(reg, "sessions_live"); got != int64(m.Live()) {
		t.Fatalf("sessions_live=%d, manager reports %d live", got, m.Live())
	}
}

// TestTTLSweep: sessions idle past the TTL are removed, log included —
// the analyst restarts with a fresh (empty) history.
func TestTTLSweep(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	reg := metrics.NewRegistry()
	m := newTestManager(t, Config{TTL: time.Minute, Clock: clock, Observer: metrics.NewSessionCollector(reg, 16)}, []float64{1, 2, 3})
	if _, err := m.Ask("alice", query.New(query.Sum, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if n := m.Sweep(now); n != 0 {
		t.Fatalf("nothing should expire yet, swept %d", n)
	}
	now = now.Add(2 * time.Minute)
	// The default session expires alongside alice.
	if n := m.Sweep(now); n != 2 {
		t.Fatalf("swept %d, want 2 (alice + default)", n)
	}
	if m.Tracked() != 0 || m.Live() != 0 {
		t.Fatalf("tracked=%d live=%d after sweep", m.Tracked(), m.Live())
	}
	if st := m.Stats("alice"); st.Answered != 0 || st.LogEvents != 0 {
		t.Fatalf("expired session should be forgotten: %+v", st)
	}
	// Returning after expiry starts a fresh session (and budget).
	if resp, err := m.Ask("alice", query.New(query.Sum, 1, 2)); err != nil || resp.Denied {
		t.Fatalf("fresh session should answer: %+v %v", resp, err)
	}
	if got := metric(reg, "sessions_expired_total"); got != 2 {
		t.Fatalf("sessions_expired_total=%d, want 2", got)
	}
	if got := metric(reg, "sessions_tracked"); got != 1 {
		t.Fatalf("sessions_tracked=%d, want 1 (alice's fresh session)", got)
	}
}

// TestDropIsNotExpiry: Drop removes sessions without counting TTL
// expiries, and lowers sessions_tracked.
func TestDropIsNotExpiry(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newTestManager(t, Config{Observer: metrics.NewSessionCollector(reg, 16)}, []float64{1, 2, 3})
	for _, analyst := range []string{"alice", "bob"} {
		if _, err := m.Ask(analyst, query.New(query.Sum, 0, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := metric(reg, "sessions_tracked"); got != 3 {
		t.Fatalf("sessions_tracked=%d, want 3 (default, alice, bob)", got)
	}
	for _, analyst := range []string{"alice", "bob"} {
		if !m.Drop(analyst) {
			t.Fatalf("dropping %s failed", analyst)
		}
	}
	if got := metric(reg, "sessions_expired_total"); got != 0 {
		t.Fatalf("sessions_expired_total=%d after two drops, want 0", got)
	}
	if got := metric(reg, "sessions_tracked"); got != 1 {
		t.Fatalf("sessions_tracked=%d, want 1 (default)", got)
	}
}

// TestUpdateBroadcast: an update mutates the shared dataset once and is
// journaled into every session's timeline; a session evicted after the
// update replays to the same post-update state.
func TestUpdateBroadcast(t *testing.T) {
	m := newTestManager(t, Config{}, []float64{1, 2, 3, 4})
	total := query.New(query.Sum, 0, 1, 2, 3)
	past := query.New(query.Sum, 1, 2, 3)
	fresh := query.New(query.Sum, 0, 1)
	if resp, err := m.Ask("alice", total); err != nil || resp.Denied {
		t.Fatalf("total: %+v %v", resp, err)
	}
	if err := m.Update(0, 42); err != nil {
		t.Fatal(err)
	}
	if m.Dataset().Sensitive(0) != 42 {
		t.Fatal("dataset not updated")
	}
	check := func(label string) {
		t.Helper()
		if resp, err := m.Ask("alice", past); err != nil || !resp.Denied {
			t.Fatalf("%s: past-value reveal must stay denied: %+v %v", label, resp, err)
		}
		if resp, err := m.Ask("alice", fresh); err != nil || resp.Denied {
			t.Fatalf("%s: fresh-version query should pass: %+v %v", label, resp, err)
		}
	}
	check("live")
	if !m.EvictEngine("alice") {
		t.Fatal("evict failed")
	}
	check("replayed")
	// Bob's session — created after the update — is unaffected but his
	// journal still carries the marker via Update's broadcast only if he
	// existed; a new session simply starts clean.
	if resp, err := m.Ask("bob", past); err != nil || resp.Denied {
		t.Fatalf("bob: %+v %v", resp, err)
	}
	if err := m.Update(99, 1); err == nil {
		t.Fatal("out-of-range update should fail")
	}
}

// TestStatsDoesNotCreateSessions: polling stats for an unknown analyst
// must not admit a session (that would let an unauthenticated monitor
// exhaust the session budget).
func TestStatsDoesNotCreateSessions(t *testing.T) {
	m := newTestManager(t, Config{}, []float64{1, 2})
	before := m.Tracked()
	st := m.Stats("nobody")
	if st.Answered != 0 || st.Live || st.LogEvents != 0 {
		t.Fatalf("unknown analyst stats: %+v", st)
	}
	if m.Tracked() != before {
		t.Fatalf("Stats created a session: %d -> %d", before, m.Tracked())
	}
	if st.Records != 2 {
		t.Fatalf("records=%d, want 2", st.Records)
	}
}

// TestSessionsListing: the admin view reports every tracked session with
// tallies, sorted by analyst.
func TestSessionsListing(t *testing.T) {
	m := newTestManager(t, Config{}, []float64{1, 2, 3})
	if _, err := m.Ask("zoe", query.New(query.Count, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ask("abe", query.New(query.Sum, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	infos := m.Sessions()
	if len(infos) != 3 { // abe, default, zoe
		t.Fatalf("listed %d sessions, want 3", len(infos))
	}
	if infos[0].Analyst != "abe" || infos[1].Analyst != DefaultAnalyst || infos[2].Analyst != "zoe" {
		t.Fatalf("not sorted: %+v", infos)
	}
	if infos[0].Answered != 1 || infos[0].LogEvents != 1 {
		t.Fatalf("abe info: %+v", infos[0])
	}
}

// TestRestoreRoundTrip: LogSnapshots → Restore on a fresh manager over
// an identical dataset reproduces every session's decision state.
func TestRestoreRoundTrip(t *testing.T) {
	vals := []float64{2, 4, 6, 8}
	m1 := newTestManager(t, Config{}, vals)
	total := query.New(query.Sum, 0, 1, 2, 3)
	rest := query.New(query.Sum, 1, 2, 3)
	if _, err := m1.Ask("alice", total); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Ask("alice", rest); err != nil { // denied, journaled
		t.Fatal(err)
	}
	if _, err := m1.Ask("bob", query.New(query.Max, 0, 1)); err != nil {
		t.Fatal(err)
	}
	snaps := m1.LogSnapshots()
	if len(snaps) != 3 {
		t.Fatalf("snapshots: %d, want 3", len(snaps))
	}

	m2 := newTestManager(t, Config{}, vals)
	if err := m2.Restore(snaps); err != nil {
		t.Fatal(err)
	}
	// Alice's budget is restored: the complement stays denied and her
	// tallies survive.
	if resp, err := m2.Ask("alice", rest); err != nil || !resp.Denied {
		t.Fatalf("restored alice complement: %+v %v", resp, err)
	}
	st := m2.Stats("alice")
	if st.Answered != 1 || st.Denied != 2 { // 1 restored denial + the probe
		t.Fatalf("restored alice stats: %+v", st)
	}
	// A corrupt snapshot is rejected wholesale.
	bad := m1.LogSnapshots()
	bad[0].Events = append(bad[0].Events, EventSnapshot{Op: "nonsense"})
	m3 := newTestManager(t, Config{}, vals)
	if err := m3.Restore(bad); err == nil {
		t.Fatal("corrupt snapshot should be rejected")
	}
}
