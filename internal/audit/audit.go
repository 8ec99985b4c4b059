// Package audit defines the online-auditing contract shared by every
// auditor in this library.
//
// The central interface, Auditor, is *simulatable by construction*
// (Section 2.2): Decide receives only the new query — never its true
// answer — plus whatever the auditor retained about previously *answered*
// queries. An attacker who knows the query stream and past answers can
// therefore run the same code and predict every denial, so denials leak
// nothing.
//
// Non-simulatable auditors (the naive baselines whose denials the paper
// shows to leak) implement AnswerDependent instead, and the engine feeds
// them the true answer; they exist to reproduce the attack that motivates
// simulatability and must never be used to protect real data.
package audit

import (
	"errors"

	"queryaudit/internal/query"
)

// Decision is the outcome of auditing one query.
type Decision int

const (
	// Deny refuses the query.
	Deny Decision = iota
	// Answer releases the true aggregate.
	Answer
)

// String returns "answer" or "deny".
func (d Decision) String() string {
	if d == Answer {
		return "answer"
	}
	return "deny"
}

// ErrUnsupportedKind is returned (or wrapped) when a query's aggregate is
// outside the auditor's supported class.
var ErrUnsupportedKind = errors.New("audit: unsupported aggregate kind for this auditor")

// Auditor is a simulatable online auditor. Implementations keep their own
// state about the answered history and are NOT safe for concurrent use —
// core.Engine serializes the Decide/Record protocol under one lock.
// The engine drives the protocol:
//
//	d, err := a.Decide(q)          // true answer NOT available here
//	if d == Answer {
//	    ans := dataset.Eval(q)
//	    a.Record(q, ans)           // answer revealed only after commit
//	}
type Auditor interface {
	// Name identifies the auditor in logs and experiment output.
	Name() string
	// Decide chooses whether q may be answered, based only on the
	// answered history and q itself. An error indicates the query is
	// malformed or unsupported (distinct from a privacy denial).
	Decide(q query.Query) (Decision, error)
	// Record commits the released answer for q to the auditor's state.
	// It must only be called after Decide(q) returned Answer.
	Record(q query.Query, answer float64)
}

// AnswerDependent is implemented by non-simulatable auditors that inspect
// the true answer before deciding. Only the naive baselines do this.
type AnswerDependent interface {
	// Name identifies the auditor.
	Name() string
	// DecideWithAnswer chooses using the true answer — the unsafe
	// behaviour Section 2.2's example shows to leak via denials.
	DecideWithAnswer(q query.Query, trueAnswer float64) (Decision, error)
	// Record commits a released answer.
	Record(q query.Query, answer float64)
}

// Updatable is implemented by auditors that support database updates
// (Sections 5–6): the engine notifies them when a record's sensitive
// value is modified, so stale constraints can be retired.
type Updatable interface {
	// NoteUpdate reports that record idx was modified (its version grew).
	NoteUpdate(idx int)
}

// ElementKnowledge summarizes what the answered history lets an attacker
// derive about one element — the per-record privacy exposure a DBA wants
// to inspect.
type ElementKnowledge struct {
	// Index is the record index.
	Index int `json:"index"`
	// Lower/Upper bound the value; ±Inf mean unbounded. The strictness
	// flags distinguish x > L from x ≥ L.
	Lower       float64 `json:"lower"`
	Upper       float64 `json:"upper"`
	LowerStrict bool    `json:"lower_strict"`
	UpperStrict bool    `json:"upper_strict"`
	// Pinned reports classical compromise: the value is determined.
	Pinned bool `json:"pinned"`
}

// KnowledgeReporter is implemented by auditors that can enumerate the
// per-element exposure of their committed trail.
type KnowledgeReporter interface {
	// Knowledge returns one entry per record, in index order.
	Knowledge() []ElementKnowledge
}

// Log is a minimal helper most auditors embed: the ordered answered
// history (queries that were actually answered, with their answers).
type Log struct {
	answered []query.Answered
}

// Append records one released answer.
func (l *Log) Append(q query.Query, answer float64) {
	l.answered = append(l.answered, query.Answered{Query: q, Answer: answer})
}

// Answered returns the answered history (shared backing array; callers
// must not mutate).
func (l *Log) Answered() []query.Answered { return l.answered }

// Len returns the number of answered queries.
func (l *Log) Len() int { return len(l.answered) }
