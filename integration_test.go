// Integration test: one long randomized session through the whole stack
// — HTTP server → session manager → engine → auditors — with journal
// persistence and replay, asserting the global privacy invariant
// (no record ever determined) and protocol bookkeeping at every step.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/offline"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/extreme"
	"queryaudit/internal/field"
	"queryaudit/internal/persist"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/server"
	"queryaudit/internal/session"
)

// integrationSpec guards ds with the sum and max∧min auditors. built, if
// non-nil, receives each sum auditor the spec builds.
func integrationSpec(ds *dataset.Dataset, built func(*sumfull.Auditor[field.Elem61, field.GF61])) *core.EngineSpec {
	n := ds.N()
	sp := core.NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) {
		a := sumfull.New(n)
		if built != nil {
			built(a)
		}
		return a, nil
	}, query.Sum)
	sp.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
	return sp
}

// newIntegrationManager serves spec with no session limits.
func newIntegrationManager(t *testing.T, spec *core.EngineSpec) *session.Manager {
	t.Helper()
	mgr, err := session.NewManager(spec, session.Config{NoJanitor: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr
}

func TestEndToEndSession(t *testing.T) {
	const n = 60
	rng := randx.New(12)
	ds := dataset.GenerateHospital(rng, dataset.DefaultHospitalConfig(n))

	// Only the default session is served and nothing is evicted, so the
	// spec builds exactly one sum auditor: the one every query reaches.
	var sumAud *sumfull.Auditor[field.Elem61, field.GF61]
	mgr := newIntegrationManager(t, integrationSpec(ds, func(a *sumfull.Auditor[field.Elem61, field.GF61]) { sumAud = a }))
	srv := httptest.NewServer(server.NewWithSessions(mgr, "severity"))
	defer srv.Close()

	var answeredMaxMin []extreme.Constraint
	var sumHistory []query.Answered
	// seen is the history as the client saw it.
	type outcome struct {
		q      query.Query
		denied bool
		answer float64
	}
	var seen []outcome

	post := func(body server.QuerySetRequest) (map[string]any, int) {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+"/v1/queryset", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return out, resp.StatusCode
	}

	kinds := []query.Kind{query.Sum, query.Max, query.Min}
	answered, denied := 0, 0
	for step := 0; step < 250; step++ {
		kind := kinds[rng.Intn(len(kinds))]
		set := query.NewSet(randx.SubsetSizeBetween(rng, n, 2, n)...)
		out, code := post(server.QuerySetRequest{Kind: kind.String(), Indices: set})
		if code != http.StatusOK {
			t.Fatalf("step %d: status %d (%v)", step, code, out)
		}
		ev := outcome{q: query.Query{Set: set, Kind: kind}}
		if out["denied"] == true {
			denied++
			ev.denied = true
		} else {
			answered++
			ans := out["answer"].(float64)
			ev.answer = ans
			switch kind {
			case query.Sum:
				sumHistory = append(sumHistory, query.Answered{
					Query: query.Query{Set: set, Kind: kind}, Answer: ans,
				})
			default:
				answeredMaxMin = append(answeredMaxMin, extreme.Constraint{
					Set: set, Value: ans, IsMax: kind == query.Max, Rel: extreme.RelEq,
				})
			}
		}
		seen = append(seen, ev)

		// Global privacy invariant, re-derived from scratch every 25
		// steps by the independent offline analyses.
		if step%25 == 24 {
			res := extreme.Analyze(n, answeredMaxMin)
			if !res.Consistent {
				t.Fatalf("step %d: answered max/min history inconsistent", step)
			}
			if res.Compromised {
				t.Fatalf("step %d: max/min history determines a record", step)
			}
			sumRes, err := offline.AuditSum(n, sumHistory)
			if err != nil {
				t.Fatal(err)
			}
			if sumRes.Compromised || sumAud.Compromised() {
				t.Fatalf("step %d: sum trail compromised", step)
			}
		}
	}
	if answered == 0 || denied == 0 {
		t.Fatalf("degenerate session: answered=%d denied=%d", answered, denied)
	}
	if st := mgr.Stats(session.DefaultAnalyst); st.Answered != answered || st.Denied != denied {
		t.Fatalf("counter drift: session (%d,%d) vs observed (%d,%d)",
			st.Answered, st.Denied, answered, denied)
	}

	// Re-ask the history against a fresh identical stack: every decision
	// must reproduce (simulatability makes them functions of the history
	// alone) and answers must match (same data).
	ds2 := dataset.GenerateHospital(randx.New(12), dataset.DefaultHospitalConfig(n))
	eng2, err := integrationSpec(ds2, nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range seen {
		resp, err := eng2.Ask(ev.q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Denied != ev.denied || (!resp.Denied && resp.Answer != ev.answer) {
			t.Fatalf("replay drift at query %d: got %+v, client saw denied=%v answer=%g",
				i, resp, ev.denied, ev.answer)
		}
	}

	// The knowledge endpoint agrees with the synopsis-derived exposure.
	resp, err := http.Get(srv.URL + "/v1/knowledge")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var know server.KnowledgeResponse
	if err := json.NewDecoder(resp.Body).Decode(&know); err != nil {
		t.Fatal(err)
	}
	ks, ok := know.Auditors[maxminfull.New(n).Name()]
	if !ok || len(ks) != n {
		t.Fatalf("knowledge report missing or wrong size: %v", know.Auditors)
	}
	for _, k := range ks {
		if k.Pinned {
			t.Fatalf("knowledge reports a pinned record %d — privacy invariant broken", k.Index)
		}
		v := ds.Sensitive(k.Index)
		if v < k.Lower || v > k.Upper {
			t.Fatalf("record %d: true value %g outside reported bounds [%g, %g]",
				k.Index, v, k.Lower, k.Upper)
		}
	}

	// Persist the session journals, restore them into a fresh manager,
	// and check that both decide a probe battery of every kind alike.
	var snap bytes.Buffer
	if err := persist.SaveSessionState(&snap, mgr.LogSnapshots(), 0); err != nil {
		t.Fatal(err)
	}
	snapBytes := snap.Len()
	journals, err := persist.LoadJournals(snap.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ds3 := dataset.GenerateHospital(randx.New(12), dataset.DefaultHospitalConfig(n))
	restored := newIntegrationManager(t, integrationSpec(ds3, nil))
	if err := restored.Install(journals); err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 60; probe++ {
		q := query.Query{Set: query.NewSet(randx.SubsetSizeBetween(rng, n, 2, n)...), Kind: kinds[probe%len(kinds)]}
		r1, err1 := mgr.Ask(session.DefaultAnalyst, q)
		r2, err2 := restored.Ask(session.DefaultAnalyst, q)
		if err1 != nil || err2 != nil || r1 != r2 {
			t.Fatalf("probe %d %v: original %+v (%v), restored %+v (%v)", probe, q, r1, err1, r2, err2)
		}
	}
	fmt.Printf("integration session: %d answered, %d denied, journal %d bytes\n",
		answered, denied, snapBytes)
}
