package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/session"
)

// quiet discards replication lifecycle logs in tests.
var quiet = log.New(io.Discard, "", 0)

// step is one scripted move: a query by an analyst, or a dataset update.
type step struct {
	analyst string
	q       query.Query
	update  bool
	idx     int
	val     float64
}

// script generates a deterministic pseudo-random multi-analyst game.
func script(seed int64, n, rounds int, kinds []query.Kind, withUpdates bool) []step {
	rng := randx.New(seed)
	analysts := []string{"alice", "bob", session.DefaultAnalyst}
	var steps []step
	for i := 0; i < rounds; i++ {
		if withUpdates && i > 0 && i%5 == 0 {
			steps = append(steps, step{update: true, idx: rng.Intn(n), val: float64(rng.Intn(50) + 1)})
			continue
		}
		size := 1 + rng.Intn(n-1)
		perm := rng.Perm(n)
		steps = append(steps, step{
			analyst: analysts[rng.Intn(len(analysts))],
			q:       query.New(kinds[rng.Intn(len(kinds))], perm[:size]...),
		})
	}
	return steps
}

// family bundles one auditor configuration under test.
type family struct {
	name        string
	n, rounds   int
	kinds       []query.Kind
	withUpdates bool
	makeDS      func() *dataset.Dataset
	makeSpec    func(ds *dataset.Dataset) *core.EngineSpec
}

func fullSpec(ds *dataset.Dataset) *core.EngineSpec {
	sp := core.NewEngineSpec(ds)
	n := ds.N()
	if err := (core.StackConfig{Family: "full", N: n}).RegisterAuditors(sp); err != nil {
		panic(err)
	}
	return sp
}

func probSpec(ds *dataset.Dataset, workers int) *core.EngineSpec {
	sp := core.NewEngineSpec(ds)
	n := ds.N()
	sp.Register(func() (audit.Auditor, error) {
		return maxminprob.New(n, maxminprob.Params{
			Lambda: 0.45, Gamma: 2, Delta: 0.2, T: 2,
			OuterSamples: 8, InnerSamples: 8, MixFactor: 1,
			Workers: workers, Seed: 12,
		})
	}, query.Max, query.Min)
	sp.Register(func() (audit.Auditor, error) {
		return sumprob.New(n, sumprob.Params{
			Lambda: 0.6, Gamma: 2, Delta: 0.2, T: 2,
			OuterSamples: 6, Workers: workers, Seed: 13,
		})
	}, query.Sum)
	return sp
}

func replicationFamilies() []family {
	return []family{
		{
			name: "full", n: 10, rounds: 16,
			kinds:       []query.Kind{query.Sum, query.Max, query.Min, query.Count},
			withUpdates: true,
			makeDS: func() *dataset.Dataset {
				return dataset.UniformDuplicateFree(randx.New(7), 10, 1, 100)
			},
			makeSpec: fullSpec,
		},
		{
			name: "prob", n: 10, rounds: 8,
			kinds: []query.Kind{query.Sum, query.Max, query.Min},
			makeDS: func() *dataset.Dataset {
				// The Section 3 auditors protect values normalized to [0,1].
				return dataset.UniformDuplicateFree(randx.New(9), 10, 0, 1)
			},
			makeSpec: func(ds *dataset.Dataset) *core.EngineSpec { return probSpec(ds, 4) },
		},
	}
}

func (f family) newManager(t *testing.T) *session.Manager {
	t.Helper()
	m, err := session.NewManager(f.makeSpec(f.makeDS()), session.Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// drive executes steps against a manager, ignoring per-query outcomes
// (denials are normal; the transcript digest captures everything).
func drive(t *testing.T, m *session.Manager, steps []step) {
	t.Helper()
	for i, st := range steps {
		if st.update {
			if err := m.Update(st.idx, st.val); err != nil {
				t.Fatalf("step %d: update: %v", i, err)
			}
			continue
		}
		if _, err := m.Ask(st.analyst, st.q); err != nil {
			t.Fatalf("step %d: ask %s: %v", i, st.analyst, err)
		}
	}
}

// positions captures every session's (seq, digest) plus dataset values.
func positions(m *session.Manager) map[string]string {
	out := map[string]string{}
	for _, info := range m.Sessions() {
		out[info.Analyst] = fmt.Sprintf("%d:%s", info.Seq, info.Digest)
	}
	return out
}

func testConfig(obs *metrics.ReplicaCollector) Config {
	return Config{
		PollWait: 200 * time.Millisecond,
		RetryMin: 5 * time.Millisecond,
		RetryMax: 50 * time.Millisecond,
		Logger:   quiet,
		Observer: obs,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether the follower has applied everything the
// primary has journaled.
func caughtUp(p, f *Node) func() bool {
	return func() bool { return f.applied.Load() >= p.journal.Head() }
}

// TestFailoverEveryIndex is the failover property test: for every prefix
// length of a scripted workload, run the prefix on a primary, replicate
// it to a follower, kill the primary, promote the follower, run the
// suffix there, and require the combined transcript — every session's
// (seq, digest) and the dataset values — to be bit-identical to an
// uninterrupted single-node run. Covers the exact-disclosure and the
// Monte Carlo probabilistic stacks.
func TestFailoverEveryIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("failover sweep is a long test")
	}
	for _, fam := range replicationFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			steps := script(21, fam.n, fam.rounds, fam.kinds, fam.withUpdates)

			// Reference: the uninterrupted single-node run.
			ref := fam.newManager(t)
			drive(t, ref, steps)
			wantPos := positions(ref)
			wantVals := ref.Dataset().Values()

			for cut := 0; cut <= len(steps); cut++ {
				cut := cut
				t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
					t.Parallel()
					pm := fam.newManager(t)
					pnode := NewNode(pm, RolePrimary, 1, "", testConfig(nil))
					psrv := httptest.NewServer(pnode.Handler())
					defer psrv.Close()
					drive(t, pm, steps[:cut])

					fm := fam.newManager(t)
					fnode := NewNode(fm, RoleReplica, 1, psrv.URL, testConfig(nil))
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					if err := fnode.StartFollower(ctx); err != nil {
						t.Fatal(err)
					}
					waitFor(t, "follower catch-up", caughtUp(pnode, fnode))

					// Kill the primary mid-stream, then promote.
					psrv.Close()
					epoch, err := fnode.Promote()
					if err != nil {
						t.Fatalf("promote: %v", err)
					}
					if epoch != 2 {
						t.Fatalf("promoted epoch = %d, want 2", epoch)
					}
					if !fnode.Writable() {
						t.Fatal("promoted node is not writable")
					}

					drive(t, fm, steps[cut:])

					if got := positions(fm); !equalPos(got, wantPos) {
						t.Fatalf("cut %d: transcript diverged:\n got %v\nwant %v", cut, got, wantPos)
					}
					got := fm.Dataset().Values()
					for i := range wantVals {
						if got[i] != wantVals[i] {
							t.Fatalf("cut %d: dataset[%d] = %v, want %v", cut, i, got[i], wantVals[i])
						}
					}
				})
			}
		})
	}
}

func equalPos(got, want map[string]string) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// TestDivergenceQuarantine injects journal corruption on the wire — a
// tampered answer for one analyst's records — and requires the follower
// to catch it via the transcript digest, quarantine exactly that
// session, surface it through replica_divergence_total, and keep
// replicating the untouched sessions.
func TestDivergenceQuarantine(t *testing.T) {
	fam := replicationFamilies()[0]
	pm := fam.newManager(t)
	pnode := NewNode(pm, RolePrimary, 1, "", testConfig(nil))
	inner := pnode.Handler()

	// Corrupting proxy: bump every journaled answer of analyst "bob" by
	// one (keeping the primary's digest), exactly what bit-rot or a
	// tampering middlebox would produce.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replication/stream" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			w.WriteHeader(rec.Code)
			io.Copy(w, rec.Body)
			return
		}
		var resp StreamResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("proxy decode: %v", err)
		}
		for i := range resp.Records {
			if resp.Records[i].Kind == RecordDecision && resp.Records[i].Analyst == "bob" {
				resp.Records[i].Event.Answer++
			}
		}
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(resp)
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes())
	}))
	defer proxy.Close()

	reg := metrics.NewRegistry()
	fm := fam.newManager(t)
	fnode := NewNode(fm, RoleReplica, 1, proxy.URL, testConfig(metrics.NewReplicaCollector(reg)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := fnode.StartFollower(ctx); err != nil {
		t.Fatal(err)
	}

	// Only now drive traffic, so every record arrives via the corrupting
	// stream rather than inside the (clean) snapshot.
	waitFor(t, "initial resync", func() bool {
		return fnode.Status().Applied >= 0 && reg.Snapshot().Counters["replica_resync_total"] >= 1
	})
	steps := script(33, fam.n, fam.rounds, fam.kinds, false)
	drive(t, pm, steps)
	waitFor(t, "follower catch-up", caughtUp(pnode, fnode))

	if _, bad := fnode.Quarantined("bob"); !bad {
		t.Fatal("tampered session was not quarantined")
	}
	if _, bad := fnode.Quarantined("alice"); bad {
		t.Fatal("untampered session was quarantined")
	}
	if got := reg.Snapshot().Counters["replica_divergence_total"]; got < 1 {
		t.Fatalf("replica_divergence_total = %d, want >= 1", got)
	}
	if got := reg.Snapshot().Gauges["replica_quarantined_sessions"]; got != 1 {
		t.Fatalf("replica_quarantined_sessions = %d, want 1", got)
	}

	// Untouched sessions replicated bit-identically.
	for _, analyst := range []string{"alice", session.DefaultAnalyst} {
		pseq, pdig, _ := pm.PositionOf(analyst)
		fseq, fdig, ok := fm.PositionOf(analyst)
		if !ok || fseq != pseq || fdig != pdig {
			t.Fatalf("analyst %s: follower at %d/%s, primary at %d/%s", analyst, fseq, fdig, pseq, pdig)
		}
	}

	// A resync lifts the quarantine: trigger one by trimming the primary
	// past the follower's cursor... simplest honest path: stop, restart
	// the follower loop (it always resyncs first) against the CLEAN
	// endpoint.
	cancel()
	fnode.StopFollower()
	clean := httptest.NewServer(inner)
	defer clean.Close()
	fnode.primaryURL.Store(clean.URL)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := fnode.StartFollower(ctx2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "quarantine lifted after clean resync", func() bool {
		_, bad := fnode.Quarantined("bob")
		return !bad
	})
	waitFor(t, "follower re-catch-up", caughtUp(pnode, fnode))
	pseq, pdig, _ := pm.PositionOf("bob")
	waitFor(t, "bob bit-identical after resync", func() bool {
		fseq, fdig, ok := fm.PositionOf("bob")
		return ok && fseq == pseq && fdig == pdig
	})
}

// TestPromoteFencing verifies the epoch fence: after a follower is
// promoted, the old primary demotes the moment it sees the higher epoch
// (via a stream request), and a stale demote can never unseat a current
// primary.
func TestPromoteFencing(t *testing.T) {
	fam := replicationFamilies()[0]
	pm := fam.newManager(t)
	pnode := NewNode(pm, RolePrimary, 1, "", testConfig(nil))
	psrv := httptest.NewServer(pnode.Handler())
	defer psrv.Close()
	drive(t, pm, script(5, fam.n, 6, fam.kinds, false))

	fm := fam.newManager(t)
	fnode := NewNode(fm, RoleReplica, 1, psrv.URL, testConfig(nil))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := fnode.StartFollower(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower catch-up", caughtUp(pnode, fnode))

	// Stale demote: must be ignored.
	pnode.Demote(1)
	if pnode.Role() != RolePrimary {
		t.Fatal("stale demote unseated the primary")
	}

	if _, err := fnode.Promote(); err != nil {
		t.Fatal(err)
	}
	// The promoted node pushes a best-effort demote; the old primary also
	// fences itself on any stream request carrying the higher epoch. Send
	// one explicitly so the test does not depend on the async push.
	body, _ := json.Marshal(StreamRequest{After: 0, Epoch: fnode.Epoch()})
	resp, err := http.Post(psrv.URL+"/v1/replication/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("stream with higher epoch: status %d, want 421", resp.StatusCode)
	}
	waitFor(t, "old primary demoted", func() bool { return pnode.Role() == RoleReplica })
	if pnode.Epoch() != fnode.Epoch() {
		t.Fatalf("old primary epoch %d, want %d", pnode.Epoch(), fnode.Epoch())
	}
	if pnode.Writable() {
		t.Fatal("demoted node still writable")
	}
}

// TestTrimForcesResync starves a follower behind a tiny journal tail and
// requires it to recover via snapshot resync (410 → snapshot → stream)
// and still land bit-identical.
func TestTrimForcesResync(t *testing.T) {
	fam := replicationFamilies()[0]
	pm := fam.newManager(t)
	cfg := testConfig(nil)
	cfg.Retention = 4
	pnode := NewNode(pm, RolePrimary, 1, "", cfg)
	psrv := httptest.NewServer(pnode.Handler())
	defer psrv.Close()

	// Journal far more than the tail retains before the follower exists.
	steps := script(44, fam.n, fam.rounds, fam.kinds, fam.withUpdates)
	drive(t, pm, steps)
	if head := pnode.journal.Head(); head <= 4 {
		t.Fatalf("journal head %d, want > retention", head)
	}

	reg := metrics.NewRegistry()
	fm := fam.newManager(t)
	fnode := NewNode(fm, RoleReplica, 1, psrv.URL, testConfig(metrics.NewReplicaCollector(reg)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := fnode.StartFollower(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower catch-up from snapshot", caughtUp(pnode, fnode))

	for analyst := range positions(pm) {
		pseq, pdig, _ := pm.PositionOf(analyst)
		fseq, fdig, ok := fm.PositionOf(analyst)
		if !ok || fseq != pseq || fdig != pdig {
			t.Fatalf("analyst %s: follower at %d/%s, primary at %d/%s", analyst, fseq, fdig, pseq, pdig)
		}
	}
	if reg.Snapshot().Counters["replica_resync_total"] < 1 {
		t.Fatal("no resync recorded")
	}
}

// TestJournalReadAfter covers the journal's long-poll and trim edges.
func TestJournalReadAfter(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 5; i++ {
		j.Append(Record{Kind: RecordDecision, Analyst: "a"})
	}
	if got := j.Head(); got != 5 {
		t.Fatalf("head = %d, want 5", got)
	}
	// Seqs 1..2 are trimmed (retention 3 keeps 3..5).
	if _, _, trimmed := j.ReadAfter(context.Background(), 1, 10, 0); !trimmed {
		t.Fatal("cursor 1 should be trimmed")
	}
	recs, head, trimmed := j.ReadAfter(context.Background(), 2, 10, 0)
	if trimmed || head != 5 || len(recs) != 3 || recs[0].Seq != 3 {
		t.Fatalf("ReadAfter(2) = %d recs head %d trimmed %v", len(recs), head, trimmed)
	}
	// Max batches.
	recs, _, _ = j.ReadAfter(context.Background(), 2, 2, 0)
	if len(recs) != 2 || recs[1].Seq != 4 {
		t.Fatalf("batched read returned %d records", len(recs))
	}
	// Long-poll wakes on append.
	done := make(chan []Record, 1)
	go func() {
		recs, _, _ := j.ReadAfter(context.Background(), 5, 10, 5*time.Second)
		done <- recs
	}()
	time.Sleep(10 * time.Millisecond)
	j.Append(Record{Kind: RecordUpdate, Index: 1})
	select {
	case recs := <-done:
		if len(recs) != 1 || recs[0].Seq != 6 {
			t.Fatalf("long-poll returned %+v", recs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}
	// Empty wait times out with no records (heartbeat).
	recs, head, trimmed = j.ReadAfter(context.Background(), 6, 10, 10*time.Millisecond)
	if len(recs) != 0 || head != 6 || trimmed {
		t.Fatalf("heartbeat read = %d recs head %d trimmed %v", len(recs), head, trimmed)
	}
}
