// Package core ties the substrate together into the statistical database
// of Section 1: a dataset with public attributes and one sensitive
// attribute, an online auditor guarding it, and a small SQL-ish query
// surface ("SELECT sum(salary) FROM t WHERE zip = '94305'").
//
// The Engine enforces the simulatability protocol: for a simulatable
// auditor the decision is taken *before* the true answer is computed, so
// no code path can leak the answer into the denial; for the naive
// answer-dependent baselines the engine deliberately computes the answer
// first, reproducing the unsafe behaviour the paper's Section 2.2 example
// warns about.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/dataset"
	"queryaudit/internal/metrics"
	"queryaudit/internal/query"
)

// Response is the outcome of one audited query.
type Response struct {
	// Denied reports whether the auditor refused the query.
	Denied bool
	// Answer is the exact aggregate when Denied is false.
	Answer float64
}

// ErrNoAuditor is returned when the engine has no auditor for the query's
// aggregate kind.
var ErrNoAuditor = errors.New("core: no auditor registered for this aggregate")

// Engine runs the online auditing protocol over one dataset. Auditors
// are registered per aggregate kind: a deployment audits sums with the
// sum auditor and max/min bags with the joint max∧min auditor.
//
// Register Max and Min with ONE joint auditor (maxminfull), never with
// two independent ones: equal max and min answers pin their shared
// element, an inference neither single-kind auditor can see. The
// experiments package's CrossAggregate measurement demonstrates the
// resulting breach. (Sum information composing with max/min is the
// NP-hard offline problem — see internal/audit/offline.AuditSumMax — and
// no online auditor for the mix is known; the paper treats the classes
// separately, as does this engine.)
//
// # Locking discipline
//
// One mutex (mu) guards ALL mutable engine state: the auditor
// registries, every auditor's internal state (auditors are not
// goroutine-safe; see audit.Auditor), the protocol counters, and the
// dataset's sensitive values and modification count. Every exported
// method acquires mu for its whole duration, so each is an atomic step
// of the protocol:
//
//   - Ask runs decide/evaluate/record as one critical section.
//   - Prime holds the lock across the ENTIRE list, so user queries
//     cannot interleave mid-prime and spuriously deny a must-have query.
//   - Stats and KnowledgeSnapshot read counters and auditor knowledge
//     in one acquisition — no torn snapshots.
//
// Auditor-returned state (audit.KnowledgeReporter, Log.Answered, the
// persist package's savers) must only be touched through the engine's
// snapshot methods once the engine is serving concurrent traffic;
// reaching around the engine to an auditor races with Ask.
type Engine struct {
	// mu serializes the protocol: auditors are stateful and their
	// Decide/Record pairs must not interleave across requests.
	mu       sync.Mutex
	ds       *dataset.Dataset
	auditors map[query.Kind]audit.Auditor         // auditlint:guardedby(mu)
	naive    map[query.Kind]audit.AnswerDependent // auditlint:guardedby(mu)
	// obs counts decisions and primes (nil: uninstrumented). Set by
	// EngineSpec.Build before the engine is published, never after.
	obs *metrics.EngineCollector
	// rec journals committed protocol steps for session replay (see
	// replay.go); nil disables journaling.
	rec Recorder // auditlint:guardedby(mu)
	// stats
	answered int // auditlint:guardedby(mu)
	denied   int // auditlint:guardedby(mu)
}

// NewEngine returns an engine over ds with no auditors registered.
func NewEngine(ds *dataset.Dataset) *Engine {
	return &Engine{
		ds:       ds,
		auditors: make(map[query.Kind]audit.Auditor),
		naive:    make(map[query.Kind]audit.AnswerDependent),
	}
}

// Dataset returns the underlying dataset. The dataset itself is not
// goroutine-safe: while the engine serves concurrent traffic, read its
// mutable fields (sensitive values, modification count) through
// engine methods (Stats, Update) rather than directly.
func (e *Engine) Dataset() *dataset.Dataset { return e.ds }

// Auditor returns the simulatable auditor registered for kind, if any.
// The returned auditor's state is guarded by the engine lock — do not
// call its methods while the engine serves concurrent traffic (use
// KnowledgeSnapshot for exposure reports).
func (e *Engine) Auditor(k query.Kind) (audit.Auditor, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.auditors[k]
	return a, ok
}

// Use registers a simulatable auditor for the given aggregate kinds.
func (e *Engine) Use(a audit.Auditor, kinds ...query.Kind) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range kinds {
		e.auditors[k] = a
	}
}

// UseAnswerDependent registers a non-simulatable auditor (baselines
// only).
func (e *Engine) UseAnswerDependent(a audit.AnswerDependent, kinds ...query.Kind) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range kinds {
		e.naive[k] = a
	}
}

// Answered returns how many queries were answered.
func (e *Engine) Answered() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.answered
}

// Denied returns how many queries were refused.
func (e *Engine) Denied() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.denied
}

// Stats is a consistent snapshot of the protocol counters and dataset
// tallies, taken under one lock acquisition.
type Stats struct {
	// Answered and Denied count protocol outcomes; their sum is the
	// number of well-formed queries the engine has decided.
	Answered int
	Denied   int
	// Records is the dataset size; Modifications counts sensitive-value
	// updates applied through Update.
	Records       int
	Modifications int
}

// Stats returns a torn-free snapshot of the counters. Unlike separate
// Answered()/Denied() calls, the pair is read in one critical section,
// so answered+denied always equals the number of decided queries at
// some single instant.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Answered:      e.answered,
		Denied:        e.denied,
		Records:       e.ds.N(),
		Modifications: e.ds.Modifications(),
	}
}

// KnowledgeSnapshot reports, per reporting auditor (by name), what the
// answered history exposes about each record. The whole report is built
// under the engine lock, so it reflects one instant of the protocol —
// calling auditors' Knowledge() directly instead races with Ask.
// Auditors registered for several kinds appear once.
func (e *Engine) KnowledgeSnapshot() map[string][]audit.ElementKnowledge {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string][]audit.ElementKnowledge{}
	seen := map[audit.Auditor]bool{}
	for _, a := range e.auditors {
		if seen[a] {
			continue
		}
		seen[a] = true
		kr, ok := a.(audit.KnowledgeReporter)
		if !ok {
			continue
		}
		out[a.Name()] = append([]audit.ElementKnowledge(nil), kr.Knowledge()...)
	}
	return out
}

// Ask runs one query through the protocol. It is safe for concurrent
// use: the decide/evaluate/record triplet runs atomically per query.
func (e *Engine) Ask(q query.Query) (Response, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.askObservedLocked(q)
}

// askObservedLocked wraps askLocked with the engine collector; it reports only
// top-level queries (the Avg→Sum recursion inside ask stays one event).
// Queries that fail with an error (malformed, unsupported) are not reported.
func (e *Engine) askObservedLocked(q query.Query) (Response, error) {
	start := time.Now() //auditlint:allow detrand latency metric stamp for the observer hook; never a decision input
	resp, err := e.askLocked(q)
	if err == nil {
		e.obs.ObserveDecision(q.Kind, resp.Denied, time.Since(start))
	}
	return resp, err
}

// askLocked is the core of Ask; callers hold mu (Avg recursion stays under one lock).
func (e *Engine) askLocked(q query.Query) (Response, error) {
	if len(q.Set) == 0 {
		return Response{Denied: true}, errors.New("core: empty query set")
	}
	for _, i := range q.Set {
		if i < 0 || i >= e.ds.N() {
			return Response{Denied: true}, fmt.Errorf("core: index %d out of range", i)
		}
	}
	switch q.Kind {
	case query.Count:
		// Query sets are defined by public attributes; counts carry no
		// information about the sensitive attribute.
		e.answered++
		e.recordLocked(q, OutcomeAnswered, float64(len(q.Set)))
		return Response{Answer: float64(len(q.Set))}, nil
	case query.Avg:
		// avg = sum/|Q| with |Q| public: audit as the equivalent sum.
		sumQ := query.Query{Set: q.Set, Kind: query.Sum}
		resp, err := e.askLocked(sumQ)
		if err != nil || resp.Denied {
			return resp, err
		}
		resp.Answer /= float64(len(q.Set))
		return resp, nil
	}
	if a, ok := e.auditors[q.Kind]; ok {
		d, err := a.Decide(q)
		if err != nil {
			// Journaled even though it is not a protocol outcome: a failed
			// Decide may still have advanced auditor-internal state (the
			// probabilistic auditors' per-decision seed counter), and
			// replay must retrace it.
			e.recordLocked(q, OutcomeErrored, 0)
			return Response{Denied: true}, err
		}
		if d == audit.Deny {
			e.denied++
			e.recordLocked(q, OutcomeDenied, 0)
			return Response{Denied: true}, nil
		}
		ans := e.ds.Eval(q)
		a.Record(q, ans)
		e.answered++
		e.recordLocked(q, OutcomeAnswered, ans)
		return Response{Answer: ans}, nil
	}
	if a, ok := e.naive[q.Kind]; ok {
		ans := e.ds.Eval(q) // deliberately unsafe: answer computed first
		d, err := a.DecideWithAnswer(q, ans)
		if err != nil {
			e.recordLocked(q, OutcomeErrored, 0)
			return Response{Denied: true}, err
		}
		if d == audit.Deny {
			e.denied++
			e.recordLocked(q, OutcomeDenied, 0)
			return Response{Denied: true}, nil
		}
		a.Record(q, ans)
		e.answered++
		e.recordLocked(q, OutcomeAnswered, ans)
		return Response{Answer: ans}, nil
	}
	return Response{Denied: true}, ErrNoAuditor
}

// Prime answers a list of must-have queries up front, before any user
// interaction — the paper's Section 7 remedy for "important, fairly
// generic queries that the world would always like to have answered"
// (e.g. the total number of cancer patients in a hospital): folding them
// into the answered pool first guarantees they remain answerable forever
// (repeats add no information), at the cost of whatever query room they
// consume. Prime fails if any primed query is itself denied.
//
// The engine lock is held across the WHOLE list: concurrent user
// queries cannot interleave between two primed queries and consume the
// query room a later must-have query needs. A denial mid-list still
// leaves earlier primes committed (they were answered, so the auditor
// remembers them) and reports the offending query.
func (e *Engine) Prime(qs []query.Query) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	committed := 0
	var err error
	for _, q := range qs {
		var resp Response
		resp, err = e.askObservedLocked(q)
		if err != nil {
			err = fmt.Errorf("core: priming %v: %w", q, err)
			break
		}
		if resp.Denied {
			err = fmt.Errorf("core: priming %v: denied — primed queries must be mutually safe", q)
			break
		}
		committed++
	}
	e.obs.ObservePrime(committed, err == nil)
	return err
}

// Update modifies record i's sensitive value and notifies every auditor
// that supports updates. Auditors without update support keep their old
// constraints, which is unsound after modification — the engine therefore
// refuses the update if any registered auditor cannot observe it.
func (e *Engine) Update(i int, v float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= e.ds.N() {
		return fmt.Errorf("core: index %d out of range", i)
	}
	// Check support before mutating, so an unsupported stack refuses the
	// update without applying it.
	seen := map[audit.Auditor]bool{}
	for _, a := range e.auditors {
		if seen[a] {
			continue
		}
		seen[a] = true
		if _, ok := a.(audit.Updatable); !ok {
			return fmt.Errorf("core: auditor %q does not support updates", a.Name())
		}
	}
	e.ds.SetSensitive(i, v)
	return e.noteUpdateLocked(i)
}
