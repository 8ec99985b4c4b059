package auditlog

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"queryaudit/internal/core"
	"queryaudit/internal/persist"
	"queryaudit/internal/session"
)

// Format names an ingestible audit-log format.
type Format string

const (
	// FormatAuto sniffs the format: a session journal if the input has
	// a journal's shape (persist envelope, snapshot, or snapshot list)
	// — a damaged journal is rejected, not re-read as ndjson — else
	// ndjson when the first byte is '{', else pgAudit-style CSV.
	FormatAuto Format = "auto"
	// FormatPGAuditCSV is a pgAudit-style CSV line per statement:
	//
	//	timestamp,user,database,session_line,class,command,statement
	//
	// Only READ/SELECT rows become entries; other classes (WRITE, DDL,
	// ROLE, ...) are counted as skipped, not malformed.
	FormatPGAuditCSV Format = "pgaudit-csv"
	// FormatNDJSON is one JSON object per line, the schema loadgen's
	// -emit-audit-log writes:
	//
	//	{"ts":"...","analyst":"a","sql":"SELECT ...","kind":"sum",
	//	 "outcome":"answered","answer":1.5}
	FormatNDJSON Format = "ndjson"
	// FormatJournal is an exported session journal: a persist
	// session-logs snapshot file, a single session.LogSnapshot (what
	// GET /v1/journal returns), or a JSON array of snapshots. Journals
	// are digest-verified as a unit — a corrupt journal is a hard
	// error, not a recoverable line.
	FormatJournal Format = "journal"
)

// ParseFormat validates a format name from a flag.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatAuto, FormatPGAuditCSV, FormatNDJSON, FormatJournal:
		return Format(s), nil
	default:
		return "", fmt.Errorf("auditlog: unknown format %q (want auto, pgaudit-csv, ndjson or journal)", s)
	}
}

// SourceStats accounts for one parsed source: every line is classified
// as an entry, malformed (counted and recovered past, never fatal for
// the line-oriented formats), or skipped (structurally valid but not an
// auditable query — comments, blank lines, non-SELECT audit classes,
// transport-error rows).
type SourceStats struct {
	Source    string `json:"source"`
	Format    string `json:"format"`
	Lines     int    `json:"lines"`
	Entries   int    `json:"entries"`
	Malformed int    `json:"malformed"`
	Skipped   int    `json:"skipped"`
}

// ParseFile reads one audit-log file.
func ParseFile(path string, format Format) ([]Entry, SourceStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, SourceStats{}, err
	}
	return ParseBytes(data, path, format)
}

// ParseBytes normalizes one in-memory audit-log source. The
// line-oriented formats recover per line: a malformed line increments
// Malformed and parsing continues, so one corrupt record never discards
// a day of history. Journal sources are validated as a unit (their
// digest chain either verifies or the file is rejected).
func ParseBytes(data []byte, source string, format Format) ([]Entry, SourceStats, error) {
	st := SourceStats{Source: source, Format: string(format)}
	if format == FormatAuto || format == FormatJournal {
		js, err := decodeJournal(data)
		if format == FormatJournal || !errors.Is(err, errNotJournal) {
			st.Format = string(FormatJournal)
			if err != nil {
				return nil, st, fmt.Errorf("auditlog: %s: %w", source, err)
			}
			return journalEntries(js, source, &st), st, nil
		}
		format = lineFormat(data)
		st.Format = string(format)
	}
	switch format {
	case FormatNDJSON:
		return parseLines(data, source, &st, parseNDJSONLine), st, nil
	case FormatPGAuditCSV:
		return parseLines(data, source, &st, parseCSVLine), st, nil
	default:
		return nil, st, fmt.Errorf("auditlog: unknown format %q", format)
	}
}

// lineFormat sniffs input that is not a journal: a leading '{' or '['
// selects ndjson, anything else is treated as CSV.
func lineFormat(data []byte) Format {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && (trimmed[0] == '{' || trimmed[0] == '[') {
		return FormatNDJSON
	}
	return FormatPGAuditCSV
}

// parseLines runs a per-line parser with error recovery. parse returns
// (entry, ok, skip): !ok counts malformed; skip counts structurally
// valid non-entries.
func parseLines(data []byte, source string, st *SourceStats, parse func(line string) (Entry, bool, bool)) []Entry {
	var entries []Entry
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	line := 0
	for sc.Scan() {
		line++
		st.Lines++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			st.Skipped++
			continue
		}
		e, ok, skip := parse(text)
		if skip {
			st.Skipped++
			continue
		}
		if !ok {
			st.Malformed++
			continue
		}
		e.Source = source
		e.Line = line
		if e.Validate() != nil {
			st.Malformed++
			continue
		}
		entries = append(entries, e)
		st.Entries++
	}
	if sc.Err() != nil {
		// A line exceeding the buffer cap is one more malformed record;
		// everything scanned before it was already recovered.
		st.Malformed++
	}
	return entries
}

// pgAudit-style CSV column layout (see FormatPGAuditCSV).
const (
	csvColTime = iota
	csvColUser
	csvColDatabase
	csvColSessionLine
	csvColClass
	csvColCommand
	csvColStatement
	csvNumCols
)

// parseCSVLine parses one pgAudit-style CSV row. The csv reader runs
// per line so a torn quote on one row cannot swallow its successors.
func parseCSVLine(line string) (Entry, bool, bool) {
	cr := csv.NewReader(strings.NewReader(line))
	cr.FieldsPerRecord = -1
	rec, err := cr.Read()
	if err != nil || len(rec) < csvNumCols {
		return Entry{}, false, false
	}
	class := strings.ToUpper(strings.TrimSpace(rec[csvColClass]))
	command := strings.ToUpper(strings.TrimSpace(rec[csvColCommand]))
	if class != "READ" || command != "SELECT" {
		// Structurally fine, just not an auditable aggregate read.
		return Entry{}, true, true
	}
	e := Entry{
		Analyst: strings.TrimSpace(rec[csvColUser]),
		Time:    strings.TrimSpace(rec[csvColTime]),
		Op:      OpQuery,
		SQL:     strings.TrimSpace(rec[csvColStatement]),
	}
	if e.Analyst == "" || e.SQL == "" {
		return Entry{}, false, false
	}
	return e, true, false
}

// ndjsonLine is the wire shape of one ndjson record (the schema
// loadgen's -emit-audit-log writes; unknown fields are ignored).
type ndjsonLine struct {
	TS      string   `json:"ts"`
	Analyst string   `json:"analyst"`
	Op      string   `json:"op"`
	SQL     string   `json:"sql"`
	Kind    string   `json:"kind"`
	Indices []int    `json:"indices"`
	Outcome string   `json:"outcome"`
	Answer  *float64 `json:"answer"`
	Index   int      `json:"index"`
}

// parseNDJSONLine parses one ndjson record.
func parseNDJSONLine(line string) (Entry, bool, bool) {
	var rec ndjsonLine
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		return Entry{}, false, false
	}
	e := Entry{
		Analyst: rec.Analyst,
		Time:    rec.TS,
		Op:      OpQuery,
		SQL:     rec.SQL,
		Kind:    rec.Kind,
		Indices: rec.Indices,
		Outcome: rec.Outcome,
		Index:   rec.Index,
	}
	if rec.Op != "" {
		e.Op = Op(rec.Op)
	}
	if rec.Answer != nil {
		e.Answer = *rec.Answer
		e.HasAnswer = true
	}
	return e, true, false
}

// errNotJournal reports input without the shape of a session journal.
var errNotJournal = errors.New("auditlog: input is not a recognizable session journal")

// seen records that a JSON key is present, without keeping its value.
type seen bool

func (s *seen) UnmarshalJSON([]byte) error { *s = true; return nil }

// journalKeys are the top-level keys that identify a journal's shape.
type journalKeys struct {
	Kind    seen `json:"kind"`
	Payload seen `json:"payload"`
	Analyst seen `json:"analyst"`
	Events  seen `json:"events"`
}

// isEnvelope reports whether k has a persist envelope's keys.
func (k journalKeys) isEnvelope() bool { return bool(k.Kind && k.Payload) }

// isSnapshot reports whether k has a bare session.LogSnapshot's keys.
func (k journalKeys) isSnapshot() bool { return bool(k.Analyst && k.Events) }

// decodeJournal rebuilds and checks (session.BuildJournals) the
// journals of any accepted shape: a persist envelope (kind + payload), a
// bare session.LogSnapshot (analyst + events) or an array of bare
// snapshots. The shape is recognized by its top-level keys alone, and
// only input without any of those shapes yields errNotJournal, so format
// detection takes a damaged journal for one even when decoding it fails.
func decodeJournal(data []byte) ([]session.Journal, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var snaps []session.LogSnapshot
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var arr []journalKeys
		if json.Unmarshal(trimmed, &arr) != nil || len(arr) == 0 || !arr[0].isSnapshot() {
			return nil, errNotJournal
		}
		if err := json.Unmarshal(trimmed, &snaps); err != nil {
			return nil, err
		}
	} else {
		var keys journalKeys
		switch {
		case json.Unmarshal(trimmed, &keys) != nil:
			return nil, errNotJournal
		case keys.isEnvelope():
			return persist.LoadJournals(trimmed)
		case !keys.isSnapshot():
			return nil, errNotJournal
		}
		snaps = make([]session.LogSnapshot, 1)
		if err := json.Unmarshal(trimmed, &snaps[0]); err != nil {
			return nil, err
		}
	}
	return session.BuildJournals(snaps)
}

// journalEntries converts checked session journals into the Entry
// stream.
func journalEntries(js []session.Journal, source string, st *SourceStats) []Entry {
	var entries []Entry
	for _, j := range js {
		for i, ev := range j.Events() {
			st.Lines++
			e := Entry{
				Source:  source,
				Line:    i + 1,
				Analyst: j.Analyst(),
			}
			if ev.Update {
				e.Op = OpUpdate
				e.Index = ev.Index
			} else {
				e.Op = OpQuery
				e.Kind = ev.Decision.Query.Kind.String()
				e.Indices = append([]int(nil), ev.Decision.Query.Set...)
				e.Outcome = ev.Decision.Outcome.String()
				if ev.Decision.Outcome == core.OutcomeAnswered {
					e.Answer = ev.Decision.Answer
					e.HasAnswer = true
				}
			}
			entries = append(entries, e)
			st.Entries++
		}
	}
	return entries
}
