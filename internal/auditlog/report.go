package auditlog

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"queryaudit/internal/core"
	"queryaudit/internal/persist"
)

// Input describes one ingested source for the report header: its parse
// accounting plus a content digest, so a report names exactly which
// bytes it covers without embedding a wall-clock timestamp (digests,
// unlike timestamps, keep the report reproducible).
type Input struct {
	SourceStats
	SHA256 string `json:"sha256,omitempty"`
}

// RiskEntry is one row of the top-risk table: the highest-scoring
// historical queries joined with their offline verdicts.
type RiskEntry struct {
	Pos     int      `json:"pos"`
	Analyst string   `json:"analyst"`
	SQL     string   `json:"sql,omitempty"`
	Kind    string   `json:"kind,omitempty"`
	Breadth int      `json:"breadth,omitempty"`
	Attrs   []string `json:"attrs,omitempty"`
	Score   float64  `json:"score"`
	// Offline is the replayed verdict for this query ("" when replay
	// skipped it).
	Offline string `json:"offline,omitempty"`
}

// AnalystReport folds one analyst's replay into the compliance view:
// how often the stack would have refused them, whether the offline
// verdicts matched the recorded ones, and how close their answered
// history stands to compromising a record.
type AnalystReport struct {
	Analyst    string  `json:"analyst"`
	Queries    int     `json:"queries"`
	Answered   int     `json:"answered"`
	Denied     int     `json:"denied"`
	Errored    int     `json:"errored"`
	Updates    int     `json:"updates"`
	Skipped    int     `json:"skipped"`
	DenialRate float64 `json:"denial_rate"`
	Compared   int     `json:"compared"`
	Mismatches int     `json:"mismatches"`
	// MaxRisk is the analyst's highest-scoring query.
	MaxRisk float64 `json:"max_risk"`
	// Proximity is per reporting auditor; JSON map keys marshal sorted,
	// so the artifact stays byte-stable.
	Proximity map[string]core.Proximity `json:"proximity,omitempty"`
	// Mismatched lists the diverging verdicts in full (empty for a
	// clean bit-for-bit replay).
	Mismatched []Verdict `json:"mismatched,omitempty"`
}

// Report is the pipeline's final artifact. Given identical inputs it is
// byte-identical: no timestamps, sorted analysts, sorted map keys.
type Report struct {
	Stack    core.StackConfig `json:"stack"`
	Inputs   []Input          `json:"inputs"`
	Entries  int              `json:"entries"`
	Queries  int              `json:"queries"`
	Updates  int              `json:"updates"`
	Skipped  int              `json:"skipped"`
	Unscored int              `json:"unscored"`
	// Compared/Mismatches summarize the bit-for-bit diff against the
	// recorded live outcomes: Mismatches == 0 means the offline stack
	// reproduced the entire recorded history exactly.
	Compared   int             `json:"compared"`
	Mismatches int             `json:"mismatches"`
	Analysts   []AnalystReport `json:"analysts"`
	TopRisk    []RiskEntry     `json:"top_risk,omitempty"`
}

// BuildReport joins the enriched stream with the replay result (by
// stream position) into the final artifact. topRisk caps the top-risk
// table (<=0 means 10).
func BuildReport(stack core.StackConfig, inputs []Input, enriched []Enriched, replay ReplayResult, topRisk int) Report {
	if topRisk <= 0 {
		topRisk = 10
	}
	rep := Report{
		Stack:      stack,
		Inputs:     inputs,
		Entries:    replay.Entries,
		Skipped:    replay.Skipped,
		Compared:   replay.Compared,
		Mismatches: replay.Mismatches,
	}

	verdictAt := map[int]Verdict{}
	maxRisk := map[string]float64{}
	for _, a := range replay.Analysts {
		for _, v := range a.Verdicts {
			verdictAt[v.Pos] = v
		}
	}

	var risks []RiskEntry
	for _, e := range enriched {
		switch e.Op {
		case OpUpdate:
			rep.Updates++
			continue
		case OpQuery:
			rep.Queries++
		}
		if e.Error != "" {
			rep.Unscored++
			continue
		}
		if e.Risk.Score > maxRisk[e.Analyst] {
			maxRisk[e.Analyst] = e.Risk.Score
		}
		re := RiskEntry{
			Pos:     e.Pos,
			Analyst: e.Analyst,
			SQL:     e.SQL,
			Kind:    e.Risk.Kind,
			Breadth: e.Risk.Breadth,
			Attrs:   e.Risk.Attrs,
			Score:   e.Risk.Score,
		}
		if v, ok := verdictAt[e.Pos]; ok {
			re.Offline = v.Offline
			if re.Breadth == 0 {
				re.Breadth = v.Breadth
			}
		}
		risks = append(risks, re)
	}
	sort.SliceStable(risks, func(i, j int) bool {
		if risks[i].Score != risks[j].Score {
			return risks[i].Score > risks[j].Score
		}
		return risks[i].Pos < risks[j].Pos
	})
	if len(risks) > topRisk {
		risks = risks[:topRisk]
	}
	rep.TopRisk = risks

	for _, a := range replay.Analysts {
		ar := AnalystReport{
			Analyst:    a.Analyst,
			Queries:    a.Answered + a.Denied + a.Errored,
			Answered:   a.Answered,
			Denied:     a.Denied,
			Errored:    a.Errored,
			Updates:    a.Updates,
			Skipped:    a.Skipped,
			Compared:   a.Compared,
			Mismatches: a.Mismatches,
			MaxRisk:    maxRisk[a.Analyst],
			Proximity:  a.Proximity,
		}
		if decided := a.Answered + a.Denied; decided > 0 {
			ar.DenialRate = float64(a.Denied) / float64(decided)
		}
		for _, v := range a.Verdicts {
			if v.Mismatch {
				ar.Mismatched = append(ar.Mismatched, v)
			}
		}
		rep.Analysts = append(rep.Analysts, ar)
	}
	return rep
}

// WriteReport writes the artifact durably and atomically.
func WriteReport(path string, rep Report) error {
	return persist.WriteAtomic(path, func(w io.Writer) error {
		return EncodeReport(w, rep)
	})
}

// EncodeReport renders the report as indented JSON with a trailing
// newline — the exact bytes WriteReport persists, exposed so tests and
// -o - share one encoder.
func EncodeReport(w io.Writer, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("auditlog: write report: %w", err)
	}
	return nil
}
