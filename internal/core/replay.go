package core

import (
	"errors"
	"fmt"

	"queryaudit/internal/audit"
	"queryaudit/internal/query"
)

// This file is the engine half of session replay. The paper's
// simulatability property (Section 2.2) says a safe auditor's state is a
// pure function of the query/decision history — never of the data — so
// the compact log of (query, outcome, released answer) triples emitted
// through Recorder is sufficient to rebuild an auditor stack
// bit-identically with Replay. Non-simulatable auditors (the naive
// answer-dependent baselines) are exactly the ones this cannot work for,
// and Replay refuses them.

// Outcome classifies one committed protocol step for the session log.
type Outcome uint8

const (
	// OutcomeAnswered: the query was answered; Answer holds the exact
	// value passed to the auditor's Record.
	OutcomeAnswered Outcome = iota
	// OutcomeDenied: the auditor refused the query (a normal protocol
	// outcome; no answer was computed).
	OutcomeDenied
	// OutcomeErrored: the auditor's Decide returned an error. Errored
	// queries are still logged because a Decide call may advance internal
	// auditor state (the probabilistic auditors' decision counter) even
	// when it fails, and replay must retrace every Decide to stay exact.
	OutcomeErrored
)

// String names the outcome for snapshots and diagnostics.
func (o Outcome) String() string {
	switch o {
	case OutcomeAnswered:
		return "answered"
	case OutcomeDenied:
		return "denied"
	case OutcomeErrored:
		return "errored"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// ParseOutcome inverts Outcome.String.
func ParseOutcome(s string) (Outcome, error) {
	switch s {
	case "answered":
		return OutcomeAnswered, nil
	case "denied":
		return OutcomeDenied, nil
	case "errored":
		return OutcomeErrored, nil
	default:
		return 0, fmt.Errorf("core: unknown outcome %q", s)
	}
}

// DecisionEvent is one committed protocol step: the query exactly as the
// auditor saw it (Avg queries appear as their equivalent Sum, because
// that is what touches auditor state) and what happened to it.
type DecisionEvent struct {
	Query   query.Query
	Outcome Outcome
	// Answer is the exact released value when Outcome is OutcomeAnswered,
	// 0 otherwise.
	Answer float64
}

// Recorder receives committed protocol events, in order, while the
// engine lock is held — implementations must be fast and must not call
// back into the engine. Queries rejected before reaching an auditor
// (malformed sets, out-of-range indices, unregistered kinds) are not
// reported: they change no auditor state, so replay does not need them.
type Recorder interface {
	RecordDecision(ev DecisionEvent)
}

// SetRecorder installs the session-log hook (nil disables). Install it
// before the engine serves traffic; with a recorder attached, every
// state-changing protocol step is journaled and the engine can later be
// rebuilt exactly by feeding the journal to a fresh engine's Replay.
func (e *Engine) SetRecorder(r Recorder) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rec = r
}

// recordLocked forwards one committed event to the recorder; callers hold mu.
func (e *Engine) recordLocked(q query.Query, o Outcome, ans float64) {
	if e.rec != nil {
		e.rec.RecordDecision(DecisionEvent{Query: q, Outcome: o, Answer: ans})
	}
}

// ErrReplayDiverged reports that a replayed decision did not match the
// logged outcome — the log is corrupt, belongs to a different auditor
// configuration, or the auditor is not simulatable.
var ErrReplayDiverged = errors.New("core: replay diverged from logged outcome")

// Replay retraces one logged protocol step against this engine's
// auditors: Decide runs exactly as it did live (for a simulatable
// auditor it is a deterministic function of auditor state), the decision
// is checked against the logged outcome, and answered queries are
// committed with the LOGGED answer rather than re-evaluating the dataset
// — the dataset may have been updated since, and simulatability
// guarantees the logged answer is the only data the auditor ever saw.
//
// Replay does not report to the engine collector (a replayed decision is not
// a new decision) and does not re-journal through the Recorder; install
// the recorder after the journal has been drained.
func (e *Engine) Replay(ev DecisionEvent) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := ev.Query
	if len(q.Set) == 0 {
		return fmt.Errorf("%w: logged query has empty set", ErrReplayDiverged)
	}
	for _, i := range q.Set {
		if i < 0 || i >= e.ds.N() {
			return fmt.Errorf("%w: logged index %d out of range", ErrReplayDiverged, i)
		}
	}
	switch q.Kind {
	case query.Count:
		if ev.Outcome != OutcomeAnswered {
			return fmt.Errorf("%w: count logged as %v", ErrReplayDiverged, ev.Outcome)
		}
		e.answered++
		return nil
	case query.Avg:
		// Avg never reaches the journal: the engine logs the inner Sum it
		// routes to, with the exact sum answer the auditor recorded.
		return fmt.Errorf("%w: avg cannot appear in a session log", ErrReplayDiverged)
	}
	if a, ok := e.auditors[q.Kind]; ok {
		d, err := a.Decide(q)
		switch ev.Outcome {
		case OutcomeErrored:
			if err == nil {
				return fmt.Errorf("%w: %v logged errored but decided %v", ErrReplayDiverged, q, d)
			}
			return nil
		case OutcomeDenied:
			if err != nil || d != audit.Deny {
				return fmt.Errorf("%w: %v logged denied but decided %v (err=%v)", ErrReplayDiverged, q, d, err)
			}
			e.denied++
			return nil
		case OutcomeAnswered:
			if err != nil || d != audit.Answer {
				return fmt.Errorf("%w: %v logged answered but decided %v (err=%v)", ErrReplayDiverged, q, d, err)
			}
			a.Record(q, ev.Answer)
			e.answered++
			return nil
		default:
			return fmt.Errorf("%w: unknown outcome %v", ErrReplayDiverged, ev.Outcome)
		}
	}
	if _, ok := e.naive[q.Kind]; ok {
		// A denial by an answer-dependent auditor depends on the true
		// answer, which a denied log entry cannot carry — the paper's
		// point about non-simulatable auditors, restated as a replay
		// impossibility.
		return fmt.Errorf("core: cannot replay %v: answer-dependent auditors are not simulatable", q.Kind)
	}
	return fmt.Errorf("core: replay: %w for kind %v", ErrNoAuditor, q.Kind)
}

// SupportsUpdates reports whether every registered simulatable auditor
// can observe database updates (audit.Updatable) — the same
// condition Update enforces per call, exposed so a session manager can
// check once per deployment instead of once per session.
func (e *Engine) SupportsUpdates() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range e.auditors {
		if _, ok := a.(audit.Updatable); !ok {
			return false
		}
	}
	return true
}

// NoteUpdate notifies every auditor that record i's sensitive value was
// modified, WITHOUT touching the dataset — for deployments where the
// dataset is shared by many engines and the mutation is applied exactly
// once by their coordinator (internal/session.Manager). Like Update, it
// refuses if any registered auditor cannot observe updates.
func (e *Engine) NoteUpdate(i int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= e.ds.N() {
		return fmt.Errorf("core: index %d out of range", i)
	}
	return e.noteUpdateLocked(i)
}

// noteUpdateLocked is the lock-held core of NoteUpdate, shared with Update.
func (e *Engine) noteUpdateLocked(i int) error {
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
	for a := range seen {
		a.(audit.Updatable).NoteUpdate(i)
	}
	return nil
}
