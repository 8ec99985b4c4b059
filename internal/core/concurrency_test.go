package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
)

// slowSeqAuditor answers everything, sleeps inside Decide to widen race
// windows, and records the order of protocol events. The engine lock
// serializes all calls, so the events slice needs no extra locking —
// exactly the discipline under test (run with -race).
type slowSeqAuditor struct {
	delay  time.Duration
	events []string
}

func (a *slowSeqAuditor) Name() string { return "slow-seq" }

func (a *slowSeqAuditor) Decide(q query.Query) (audit.Decision, error) {
	a.events = append(a.events, fmt.Sprintf("decide:%v", []int(q.Set)))
	time.Sleep(a.delay)
	return audit.Answer, nil
}

func (a *slowSeqAuditor) Record(q query.Query, _ float64) {
	a.events = append(a.events, fmt.Sprintf("record:%v", []int(q.Set)))
}

// TestPrimeHoldsLockAcrossList: a user query issued while Prime is
// mid-list must not interleave between two primed queries — the lock is
// held across the whole list.
func TestPrimeHoldsLockAcrossList(t *testing.T) {
	ds := dataset.FromValues([]float64{1, 2, 3, 4})
	eng := NewEngine(ds)
	aud := &slowSeqAuditor{delay: 30 * time.Millisecond}
	eng.Use(aud, query.Sum)

	primeStarted := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(primeStarted)
		done <- eng.Prime([]query.Query{
			query.New(query.Sum, 0, 1, 2, 3),
			query.New(query.Sum, 0, 1),
		})
	}()
	<-primeStarted
	time.Sleep(10 * time.Millisecond) // let Prime take the lock and enter query 1
	if _, err := eng.Ask(query.New(query.Sum, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The user query's decide must come after BOTH primed decides.
	if len(aud.events) != 6 {
		t.Fatalf("events = %v, want 3 decide/record pairs", aud.events)
	}
	userPos := -1
	for i, ev := range aud.events {
		if ev == "decide:[2 3]" {
			userPos = i
		}
	}
	if userPos != 4 {
		t.Fatalf("user decide interleaved with prime: %v", aud.events)
	}
}

// TestStatsSnapshotConsistent: hammer Ask from many goroutines while
// reading Stats; the pair must always satisfy answered+denied ==
// (queries completed so far), i.e. never a torn read where one counter
// moved and the other hasn't. With separate Answered()/Denied() calls
// this invariant is unverifiable; Stats reads both under one lock.
func TestStatsSnapshotConsistent(t *testing.T) {
	ds := dataset.FromValues(make([]float64, 32))
	eng := NewEngine(ds)
	eng.Use(sumfull.New(32), query.Sum)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lo := (g*7 + i) % 24
				eng.Ask(query.New(query.Sum, lo, lo+1, lo+2, lo+3))
			}
		}(g)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := eng.Stats()
			if st.Answered < 0 || st.Denied < 0 || st.Answered+st.Denied > 800 {
				t.Errorf("impossible snapshot: %+v", st)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	st := eng.Stats()
	if st.Answered+st.Denied != 800 {
		t.Fatalf("final counters: %+v, want answered+denied == 800", st)
	}
}

// TestKnowledgeSnapshotConcurrent: reading knowledge while queries run
// must be race-free (the old path called auditor.Knowledge() without
// the engine lock; run with -race to see it).
func TestKnowledgeSnapshotConcurrent(t *testing.T) {
	ds := dataset.FromValues(make([]float64, 24))
	eng := NewEngine(ds)
	eng.Use(sumfull.New(24), query.Sum)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			lo := i % 20
			eng.Ask(query.New(query.Sum, lo, lo+1, lo+2))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			snap := eng.KnowledgeSnapshot()
			if ks, ok := snap["sum-full-disclosure"]; ok && len(ks) != 24 {
				t.Errorf("knowledge entries = %d, want 24", len(ks))
				return
			}
		}
	}()
	wg.Wait()
}

// TestObserverEvents: the spec's engine collector counts every decided
// query once (Avg→Sum recursion included) and every prime outcome.
func TestObserverEvents(t *testing.T) {
	ds := dataset.FromValues([]float64{10, 20, 30, 40})
	sp := NewEngineSpec(ds)
	sp.Register(func() (audit.Auditor, error) { return sumfull.New(ds.N()), nil }, query.Sum)
	sp.Register(func() (audit.Auditor, error) { return maxfull.New(ds.N()), nil }, query.Max)
	reg := metrics.NewRegistry()
	sp.SetObserver(metrics.NewEngineCollector(reg))
	eng, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng.Ask(query.New(query.Sum, 0, 1, 2, 3)) // answered
	eng.Ask(query.New(query.Sum, 1, 2, 3))    // denied (complement)
	eng.Ask(query.New(query.Avg, 0, 1))       // one event, not two (Avg→Sum recursion)
	if err := eng.Prime([]query.Query{query.New(query.Max, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[string]int64{
		"engine_answered_total_sum":   1,
		"engine_denied_total_sum":     1,
		"engine_answered_total_avg":   1,
		"engine_answered_total_max":   1,
		"engine_denied_total_max":     0,
		"engine_prime_ok_total":       1,
		"engine_prime_failed_total":   0,
		"engine_primed_queries_total": 1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if got := snap.Histograms["engine_decide_seconds"].Count; got != 4 {
		t.Errorf("engine_decide_seconds count = %d, want 4", got)
	}
}
