// Package session gives each analyst an isolated auditor stack over one
// shared dataset — the multi-analyst deployment shape the paper's
// per-analyst compromise definitions assume. The Manager keys sessions
// by analyst ID across N lock shards, bounds live memory with TTL expiry
// and LRU engine eviction, and applies admission control beyond a hard
// session cap.
//
// The subsystem leans on the paper's simulatability property (§2.2): a
// simulatable auditor's state is a pure function of its query/decision
// history and never of the data, so the compact per-session Log — just
// the ordered (query, outcome, released answer) sequence plus update
// markers — is a complete, replayable representation of a session. An
// evicted or restarted session is rebuilt bit-identically by replaying
// its log into a fresh engine from the deployment's core.EngineSpec.
// Non-simulatable (answer-dependent) auditors cannot be replayed, and
// core.Engine.Replay refuses them; only simulatable stacks belong behind
// this manager.
//
// Every log additionally maintains a monotonic per-session sequence
// number and a transcript digest (a hash chain over its events, see
// core.ChainDecision). The pair (seq, digest) names a unique point of
// the session's timeline and commits the full auditor state at that
// point, which is what the replication subsystem (internal/replica)
// ships, acks and compares for divergence.
package session

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"queryaudit/internal/core"
	"queryaudit/internal/query"
)

// Event is one session-log entry: either a committed protocol decision
// (exactly as journaled by the engine's Recorder hook) or a marker that
// the shared dataset was updated at this point in the session's
// timeline. Update markers matter for replay order: an answer recorded
// before an update is retired by it, so the interleaving must be
// preserved.
type Event struct {
	// Update distinguishes the two arms.
	Update bool
	// Decision is set when Update is false.
	Decision core.DecisionEvent
	// Index is the updated record when Update is true.
	Index int
}

// chain extends a transcript digest with this event.
func (ev Event) chain(prev core.Digest) core.Digest {
	if ev.Update {
		return core.ChainUpdate(prev, ev.Index)
	}
	return core.ChainDecision(prev, ev.Decision)
}

// Log is a session's append-only journal. It implements core.Recorder,
// so installing it on an engine (core.Engine.SetRecorder) journals every
// state-changing protocol step automatically. Appends are O(1) and keep
// running answered/denied tallies so session stats never require a
// materialized engine, plus the running (seq, digest) position used by
// replication.
type Log struct {
	mu       sync.Mutex
	events   []Event
	answered int
	denied   int
	// seq is the 1-based sequence number of the last appended event
	// (== len(events); logs are never truncated).
	seq uint64
	// digest is the transcript hash chain after the last event.
	digest core.Digest
	// notify, when set, receives every decision appended through the
	// engine Recorder path (live traffic), under l.mu so per-session
	// sequence order is preserved. Replicated applies (appendApplied) and
	// update markers do NOT notify: the Manager taps those itself.
	notify func(seq uint64, ev core.DecisionEvent, digest core.Digest)
}

// NewLog returns an empty journal.
func NewLog() *Log { return &Log{} }

// append adds ev, advancing tallies, seq and digest; callers hold l.mu.
func (l *Log) append(ev Event) (uint64, core.Digest) {
	l.events = append(l.events, ev)
	l.seq++
	l.digest = ev.chain(l.digest)
	if !ev.Update {
		switch ev.Decision.Outcome {
		case core.OutcomeAnswered:
			l.answered++
		case core.OutcomeDenied:
			l.denied++
		}
	}
	return l.seq, l.digest
}

// RecordDecision implements core.Recorder. It runs under the engine
// lock; the append is a few pointer writes plus one SHA-256 block for
// the digest chain. The notify hook (replication tap) fires under l.mu
// so taps observe each session's events in sequence order.
func (l *Log) RecordDecision(ev core.DecisionEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, d := l.append(Event{Decision: ev})
	if l.notify != nil {
		l.notify(seq, ev, d)
	}
}

// appendApplied journals a decision replicated from a primary — same
// append as RecordDecision but without the notify hook, so a follower
// applying shipped events does not re-tap them into its own feed (the
// replica layer mirrors the primary's records verbatim instead).
func (l *Log) appendApplied(ev core.DecisionEvent) (uint64, core.Digest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Event{Decision: ev})
}

// AppendUpdate journals a dataset update marker and returns the log
// position after it. Updates are tapped once globally by the Manager
// (they touch every session), so no per-log notify fires here.
func (l *Log) AppendUpdate(i int) (uint64, core.Digest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Event{Update: true, Index: i})
}

// Len returns the number of journaled events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Tallies returns the running answered/denied counts.
func (l *Log) Tallies() (answered, denied int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.answered, l.denied
}

// Position returns the log's current (seq, digest) pair: the sequence
// number of the last event and the transcript digest after it.
func (l *Log) Position() (uint64, core.Digest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.digest
}

// Seq returns the sequence number of the last appended event (0 for an
// empty journal).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Digest returns the transcript digest after the last event.
func (l *Log) Digest() core.Digest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.digest
}

// Events returns a copy of the journal for replay.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// LogSnapshot is the serializable form of one session's journal, used
// by internal/persist to carry sessions across restarts and by the
// replication snapshot RPC to seed followers.
type LogSnapshot struct {
	Analyst string `json:"analyst"`
	// Seq is the sequence number of the last event (== len(Events)).
	Seq uint64 `json:"seq,omitempty"`
	// Digest is the hex transcript digest after the last event; loaders
	// recompute the chain and refuse a snapshot whose digest mismatches
	// (journal corruption surfaces at restore time, not replay time).
	Digest string          `json:"digest,omitempty"`
	Events []EventSnapshot `json:"events"`
}

// EventSnapshot is the serializable form of one Event.
type EventSnapshot struct {
	// Op is "query" or "update".
	Op string `json:"op"`
	// Query fields (Op == "query").
	Kind    string  `json:"kind,omitempty"`
	Indices Indices `json:"indices,omitempty"`
	Outcome string  `json:"outcome,omitempty"`
	Answer  float64 `json:"answer,omitempty"`
	// Index is the updated record (Op == "update").
	Index int `json:"index,omitempty"`
}

// EncodeEvent converts an Event to its serializable snapshot form.
func EncodeEvent(ev Event) EventSnapshot {
	if ev.Update {
		return EventSnapshot{Op: "update", Index: ev.Index}
	}
	return EventSnapshot{
		Op:      "query",
		Kind:    ev.Decision.Query.Kind.String(),
		Indices: append([]int(nil), ev.Decision.Query.Set...),
		Outcome: ev.Decision.Outcome.String(),
		Answer:  ev.Decision.Answer,
	}
}

// DecodeEvent inverts EncodeEvent, validating the structural invariants
// (snapshots and replication records may come from untrusted storage or
// a wire): known ops, parsable kinds and outcomes, non-empty index sets,
// non-negative indices. Range checks against the dataset happen during
// replay.
func DecodeEvent(es EventSnapshot) (Event, error) {
	switch es.Op {
	case "update":
		if es.Index < 0 {
			return Event{}, fmt.Errorf("session: negative update index %d", es.Index)
		}
		return Event{Update: true, Index: es.Index}, nil
	case "query":
		kind, err := query.ParseKind(es.Kind)
		if err != nil {
			return Event{}, err
		}
		outcome, err := core.ParseOutcome(es.Outcome)
		if err != nil {
			return Event{}, err
		}
		if len(es.Indices) == 0 {
			return Event{}, fmt.Errorf("session: query with empty index set")
		}
		for _, idx := range es.Indices {
			if idx < 0 {
				return Event{}, fmt.Errorf("session: negative index %d", idx)
			}
		}
		return Event{Decision: core.DecisionEvent{
			Query:   query.New(kind, es.Indices...),
			Outcome: outcome,
			Answer:  es.Answer,
		}}, nil
	default:
		return Event{}, fmt.Errorf("session: unknown op %q", es.Op)
	}
}

// Snapshot exports the journal under the given analyst name, including
// its current sequence number and transcript digest.
func (l *Log) Snapshot(analyst string) LogSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	es := make([]EventSnapshot, len(l.events))
	for i, ev := range l.events {
		es[i] = EncodeEvent(ev)
	}
	return LogSnapshot{Analyst: analyst, Seq: l.seq, Digest: l.digest.Hex(), Events: es}
}

// Validate checks the structural invariants of a snapshot (snapshots may
// come from untrusted storage) and, when the snapshot carries a seq or
// digest, that they agree with the recomputed hash chain — a truncated
// or bit-flipped journal is rejected here instead of replaying into a
// silently different auditor.
func (s LogSnapshot) Validate() error {
	_, err := logFromSnapshot(s)
	return err
}

// checkPosition compares the snapshot's recorded seq and digest, when
// present, with its event count and the recomputed chain digest d.
func (s LogSnapshot) checkPosition(d core.Digest) error {
	if s.Seq != 0 && s.Seq != uint64(len(s.Events)) {
		return fmt.Errorf("session: snapshot seq %d does not match %d events", s.Seq, len(s.Events))
	}
	if s.Digest != "" {
		want, err := core.ParseDigest(s.Digest)
		if err != nil {
			return fmt.Errorf("session: %w", err)
		}
		if want != d {
			return fmt.Errorf("session: snapshot digest %s does not match journal (recomputed %s) — corrupt or tampered journal", s.Digest, d.Hex())
		}
	}
	return nil
}

// logFromSnapshot rebuilds a Log (with recomputed tallies, seq and
// digest) from a snapshot, decoding and chaining each event once, and
// refuses a snapshot that fails Validate's checks.
func logFromSnapshot(s LogSnapshot) (*Log, error) {
	l := NewLog()
	l.events = make([]Event, 0, len(s.Events))
	for i, es := range s.Events {
		ev, err := DecodeEvent(es)
		if err != nil {
			return nil, fmt.Errorf("session: event %d: %w", i, err)
		}
		l.append(ev)
	}
	if err := s.checkPosition(l.digest); err != nil {
		return nil, err
	}
	return l, nil
}

// Indices is the index set of a journaled query. It encodes as a JSON
// array of integers and decodes exactly as encoding/json decodes into
// []int, without reflection: journals are mostly index arrays, and a
// restart decodes every one of them.
type Indices []int

// UnmarshalJSON implements json.Unmarshaler. It accepts null (a nil set)
// or an array whose elements are integers in int's range or null (a 0,
// as encoding/json leaves an int it is given null), with JSON whitespace
// anywhere between tokens. Fractions, exponents, overflow, strings and
// any other value are refused.
func (x *Indices) UnmarshalJSON(data []byte) error {
	p := intsParser{data: data}
	p.space()
	if p.literal("null") {
		p.space()
		if p.i != len(p.data) {
			return p.fail()
		}
		*x = nil
		return nil
	}
	if !p.eat('[') {
		return p.fail()
	}
	out := make(Indices, 0, bytes.Count(data, []byte{','})+1)
	p.space()
	if !p.eat(']') {
		for {
			p.space()
			v, ok := p.element()
			if !ok {
				return p.fail()
			}
			out = append(out, v)
			p.space()
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return p.fail()
			}
		}
	}
	p.space()
	if p.i != len(p.data) {
		return p.fail()
	}
	*x = out
	return nil
}

// intsParser is UnmarshalJSON's cursor over its input.
type intsParser struct {
	data []byte
	i    int
}

func (p *intsParser) fail() error {
	return fmt.Errorf("session: index set is not a JSON array of integers (byte %d)", p.i)
}

// space skips JSON whitespace.
func (p *intsParser) space() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *intsParser) eat(c byte) bool {
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes lit if it is next.
func (p *intsParser) literal(lit string) bool {
	if bytes.HasPrefix(p.data[p.i:], []byte(lit)) {
		p.i += len(lit)
		return true
	}
	return false
}

// element consumes one array element: a JSON integer that fits an int, or
// null for 0. A number with a fraction or an exponent is refused.
func (p *intsParser) element() (int, bool) {
	if p.literal("null") {
		return 0, true
	}
	neg := p.eat('-')
	start := p.i
	var mag uint64
	for p.i < len(p.data) && '0' <= p.data[p.i] && p.data[p.i] <= '9' {
		d := uint64(p.data[p.i] - '0')
		if mag > (math.MaxUint64-d)/10 {
			return 0, false
		}
		mag = mag*10 + d
		p.i++
	}
	digits := p.i - start
	if digits == 0 || digits > 1 && p.data[start] == '0' {
		return 0, false
	}
	if neg {
		if mag > uint64(math.MaxInt)+1 {
			return 0, false
		}
		return int(-mag), true
	}
	if mag > math.MaxInt {
		return 0, false
	}
	return int(mag), true
}
