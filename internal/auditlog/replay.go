package auditlog

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"queryaudit/internal/core"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
)

// Verdict is the replay outcome for one entry: what the offline stack
// decided, what the live system recorded (when the source carries it),
// and whether the two agree.
type Verdict struct {
	Pos     int    `json:"pos"`
	Source  string `json:"source,omitempty"`
	Line    int    `json:"line,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Breadth int    `json:"breadth,omitempty"`
	// Offline is the offline stack's verdict ("answered", "denied",
	// "errored"; empty when the entry was skipped or diverged before a
	// verdict existed).
	Offline string  `json:"offline,omitempty"`
	Answer  float64 `json:"answer,omitempty"`
	// Recorded is the live outcome the source carried ("" = none).
	Recorded string `json:"recorded,omitempty"`
	// Mismatch is set when a recorded outcome exists and the offline
	// stack disagreed (outcome or released answer) — the bit-for-bit
	// diff the pipeline exists to compute.
	Mismatch bool   `json:"mismatch,omitempty"`
	Skipped  bool   `json:"skipped,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// AnalystReplay is one analyst's full offline history.
type AnalystReplay struct {
	Analyst  string `json:"analyst"`
	Entries  int    `json:"entries"`
	Answered int    `json:"answered"`
	Denied   int    `json:"denied"`
	Errored  int    `json:"errored"`
	Updates  int    `json:"updates"`
	Skipped  int    `json:"skipped"`
	// Compared counts entries that carried a recorded live outcome;
	// Mismatches counts how many the offline stack contradicted.
	Compared   int       `json:"compared"`
	Mismatches int       `json:"mismatches"`
	Verdicts   []Verdict `json:"verdicts"`
	// Proximity is the compromise-proximity summary per reporting
	// auditor, taken from the rebuilt engine's knowledge snapshot after
	// the whole history replayed.
	Proximity map[string]core.Proximity `json:"proximity,omitempty"`
}

// ReplayResult is the replay stage's output, analysts sorted by name.
type ReplayResult struct {
	Analysts   []AnalystReplay `json:"analysts"`
	Entries    int             `json:"entries"`
	Compared   int             `json:"compared"`
	Mismatches int             `json:"mismatches"`
	Skipped    int             `json:"skipped"`
}

// Replayer rebuilds analyst histories offline. Analysts are independent
// — each gets its own freshly generated dataset and engine (update
// isolation) — so replay fans out across a bounded worker pool; Sched,
// when set, is the process-wide Monte Carlo scheduler every engine's
// probabilistic decisions multiplex over, mirroring the live server.
type Replayer struct {
	Stack core.StackConfig
	// Workers bounds the analyst-level fan-out (0 = GOMAXPROCS).
	Workers int
	// Sched is the shared mcpar assist pool (optional).
	Sched *mcpar.Scheduler
	// Sensitive names the aggregate target for SQL resolution
	// ("salary" for the built-in schema).
	Sensitive string
}

// Replay runs every analyst's history through a fresh offline stack,
// resolving SQL entries through sqlRes. Predicates touch only the
// immutable public attributes, so one resolver over the pristine
// dataset serves every analyst concurrently, and its statement memo
// resolves a repeated statement once.
// Output order is input-independent of scheduling: analysts are sorted,
// verdicts keep stream order, and results land in indexed slots.
func (r *Replayer) Replay(entries []Entry, sqlRes *core.SQLResolver) (ReplayResult, error) {
	if err := r.Stack.Validate(); err != nil {
		return ReplayResult{}, err
	}
	byAnalyst := map[string][]Entry{}
	var names []string
	for _, e := range entries {
		if _, ok := byAnalyst[e.Analyst]; !ok {
			names = append(names, e.Analyst)
		}
		byAnalyst[e.Analyst] = append(byAnalyst[e.Analyst], e)
	}
	sort.Strings(names)

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]AnalystReplay, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = r.replayAnalyst(name, byAnalyst[name], sqlRes)
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return ReplayResult{}, fmt.Errorf("auditlog: analyst %q: %w", names[i], err)
		}
	}
	var out ReplayResult
	out.Analysts = results
	for _, a := range results {
		out.Entries += a.Entries
		out.Compared += a.Compared
		out.Mismatches += a.Mismatches
		out.Skipped += a.Skipped
	}
	return out, nil
}

// replayAnalyst rebuilds one analyst's stack and feeds it the history.
func (r *Replayer) replayAnalyst(name string, entries []Entry, sqlRes *core.SQLResolver) (AnalystReplay, error) {
	spec := core.NewEngineSpec(r.Stack.NewDataset())
	if err := r.Stack.RegisterAuditors(spec); err != nil {
		return AnalystReplay{}, err
	}
	if r.Sched != nil {
		spec.SetMCScheduler(r.Sched)
	}
	eng, err := spec.Build()
	if err != nil {
		return AnalystReplay{}, err
	}
	res := AnalystReplay{Analyst: name, Entries: len(entries)}
	for _, e := range entries {
		v := Verdict{Pos: e.Pos, Source: e.Source, Line: e.Line, Kind: e.Kind, Recorded: e.Outcome}
		switch e.Op {
		case OpUpdate:
			if err := eng.NoteUpdate(e.Index); err != nil {
				v.Skipped = true
				v.Detail = err.Error()
				res.Skipped++
			} else {
				res.Updates++
				continue // updates produce no verdict of their own
			}
		case OpQuery:
			r.replayQuery(eng, sqlRes, e, &v, &res)
		}
		res.Verdicts = append(res.Verdicts, v)
	}
	res.Proximity = eng.KnowledgeProximity()
	return res, nil
}

// replayQuery replays one query entry, preferring the exact journal
// path (explicit indices + recorded outcome → Engine.Replay, which
// re-runs Decide and diffs against the log) and falling back to full
// re-resolution and re-decision for external statements.
func (r *Replayer) replayQuery(eng *core.Engine, sqlRes *core.SQLResolver, e Entry, v *Verdict, res *AnalystReplay) {
	if e.Outcome == "error" {
		// A transport-level failure: the query may never have reached an
		// auditor, so replaying it could desynchronize every later
		// decision. Skip it, visibly.
		v.Skipped = true
		v.Detail = "transport error in source log; not replayed"
		res.Skipped++
		return
	}
	q, err := r.entryQuery(sqlRes, e)
	if err != nil {
		v.Skipped = true
		v.Detail = err.Error()
		res.Skipped++
		return
	}
	v.Breadth = len(q.Set)
	if v.Kind == "" {
		v.Kind = q.Kind.String()
	}
	if rec, err := core.ParseOutcome(e.Outcome); err == nil && len(e.Indices) > 0 {
		// Journal-grade entry: retrace the logged step bit-for-bit.
		ev := core.DecisionEvent{Query: q, Outcome: rec, Answer: e.Answer}
		res.Compared++
		if err := eng.Replay(ev); err != nil {
			v.Mismatch = true
			v.Detail = err.Error()
			res.Mismatches++
			return
		}
		v.Offline = rec.String()
		v.Answer = e.Answer
		r.countOutcome(rec, res)
		return
	}
	// External statement: decide afresh against the rebuilt state. The
	// offline dataset is the deterministic regeneration of the live one,
	// so answered values are comparable bit-for-bit too.
	resp, err := eng.Ask(q)
	switch {
	case err != nil:
		v.Offline = core.OutcomeErrored.String()
		v.Detail = err.Error()
		res.Errored++
	case resp.Denied:
		v.Offline = core.OutcomeDenied.String()
		res.Denied++
	default:
		v.Offline = core.OutcomeAnswered.String()
		v.Answer = resp.Answer
		res.Answered++
	}
	if rec, perr := core.ParseOutcome(e.Outcome); perr == nil {
		res.Compared++
		if rec.String() != v.Offline {
			v.Mismatch = true
			res.Mismatches++
		} else if rec == core.OutcomeAnswered && e.HasAnswer && e.Answer != v.Answer {
			v.Mismatch = true
			v.Detail = fmt.Sprintf("answer mismatch: live %v, offline %v", e.Answer, v.Answer)
			res.Mismatches++
		}
	}
}

// entryQuery materializes the entry's query: explicit indices when the
// source carried them, otherwise the statement resolved through sqlRes.
func (r *Replayer) entryQuery(sqlRes *core.SQLResolver, e Entry) (query.Query, error) {
	if len(e.Indices) > 0 {
		k, err := query.ParseKind(e.Kind)
		if err != nil {
			return query.Query{}, err
		}
		return query.Query{Set: query.NewSet(e.Indices...), Kind: k}, nil
	}
	sensitive := r.Sensitive
	if sensitive == "" {
		sensitive = "salary"
	}
	return sqlRes.ResolveSQL(sensitive, e.SQL)
}

// countOutcome tallies one offline verdict.
func (r *Replayer) countOutcome(o core.Outcome, res *AnalystReplay) {
	switch o {
	case core.OutcomeAnswered:
		res.Answered++
	case core.OutcomeDenied:
		res.Denied++
	case core.OutcomeErrored:
		res.Errored++
	}
}
