// Command auditreport is the retrospective-auditing pipeline: it
// ingests historical audit logs (pgAudit-style CSV, ndjson, or this
// project's exported session journals), risk-scores every query against
// a sensitivity dictionary, replays each analyst's history offline
// through the same auditor stack a live auditserver runs, and writes a
// deterministic compliance report:
//
//	auditreport -auditors full -n 300 -seed 1 -o report.json audit.ndjson
//	auditreport -auditors prob -prob-seed 7 -verify sessions.json
//
// The stack flags are auditserver's (core.StackConfig.RegisterFlags):
// give auditreport the same -auditors/-n/-seed (and -prob-*) values the
// live server ran with and the offline stack is construction-identical,
// so — by the paper's simulatability property — the offline verdicts
// reproduce the recorded live verdicts bit-for-bit. -verify makes any
// divergence (or any malformed input line) fatal, turning the pipeline
// into a compliance check; without it the report simply records the
// mismatches.
//
// Running the pipeline twice over the same inputs yields byte-identical
// reports: the artifact carries input digests instead of timestamps,
// analysts are sorted, and replay order is scheduling-independent.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"log"
	"os"

	"queryaudit/internal/auditlog"
	"queryaudit/internal/core"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/persist"
	"queryaudit/internal/qindex"
)

func main() {
	var (
		format    = flag.String("format", "auto", "input format: auto, pgaudit-csv, ndjson or journal")
		out       = flag.String("o", "report.json", "report output path (\"-\" writes to stdout)")
		enriched  = flag.String("enriched", "", "optional path for the enriched ndjson stream")
		dictPath  = flag.String("dict", "", "sensitivity dictionary JSON (default: built-in company schema)")
		sensitive = flag.String("sensitive", "salary", "aggregate target attribute for SQL resolution")
		topRisk   = flag.Int("top-risk", 10, "rows in the top-risk table")
		workers   = flag.Int("workers", 0, "analyst replay fan-out (0 = GOMAXPROCS)")
		verify    = flag.Bool("verify", false, "exit nonzero on any verdict mismatch or malformed input line")
		quiet     = flag.Bool("quiet", false, "suppress the stderr summary")
	)
	stack := core.DefaultStackConfig()
	stack.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger := log.New(os.Stderr, "auditreport ", 0)
	if *quiet {
		logger.SetOutput(io.Discard)
	}
	if flag.NArg() == 0 {
		log.New(os.Stderr, "auditreport ", 0).Fatalf("no input files (usage: auditreport [flags] <audit log>...)")
	}
	fatal := func(formatStr string, args ...any) {
		log.New(os.Stderr, "auditreport ", 0).Fatalf(formatStr, args...)
	}

	if err := stack.Validate(); err != nil {
		fatal("%v", err)
	}
	fmtName, err := auditlog.ParseFormat(*format)
	if err != nil {
		fatal("%v", err)
	}
	dict := auditlog.DefaultDict()
	if *dictPath != "" {
		if dict, err = auditlog.LoadDict(*dictPath); err != nil {
			fatal("%v", err)
		}
	}

	// Parse every source into one position-numbered stream.
	var (
		entries   []auditlog.Entry
		inputs    []auditlog.Input
		malformed int
	)
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal("%v", err)
		}
		es, st, err := auditlog.ParseBytes(data, path, fmtName)
		if err != nil {
			fatal("%v", err)
		}
		sum := sha256.Sum256(data)
		inputs = append(inputs, auditlog.Input{SourceStats: st, SHA256: hex.EncodeToString(sum[:])})
		malformed += st.Malformed
		entries = append(entries, es...)
		logger.Printf("parsed %s (%s): %d entries, %d malformed, %d skipped",
			path, st.Format, st.Entries, st.Malformed, st.Skipped)
	}
	for i := range entries {
		entries[i].Pos = i
	}

	// Enrich: risk-score every query. One indexed, memoized resolver
	// over the pristine dataset serves both enrichment breadth and SQL
	// replay (predicates touch only immutable public attributes), so
	// each distinct statement is resolved once.
	sqlRes := core.NewSQLResolver(qindex.NewResolver(stack.NewDataset()))
	en := &auditlog.Enricher{Dict: dict, Records: stack.N, Sensitive: *sensitive, SQL: sqlRes}
	scored := en.Enrich(entries)
	if *enriched != "" {
		err := persist.WriteAtomic(*enriched, func(w io.Writer) error {
			return auditlog.WriteEnriched(w, scored)
		})
		if err != nil {
			fatal("%v", err)
		}
		logger.Printf("enriched stream written to %s (%d records)", *enriched, len(scored))
	}

	// Replay: every analyst's history through a fresh offline stack,
	// all Monte Carlo work multiplexed over one process-wide scheduler
	// exactly like the live server.
	rp := &auditlog.Replayer{Stack: stack, Workers: *workers, Sensitive: *sensitive}
	if stack.Family == "prob" {
		rp.Sched = mcpar.NewScheduler(stack.MCWorkers)
	}
	result, err := rp.Replay(entries, sqlRes)
	if err != nil {
		fatal("%v", err)
	}

	rep := auditlog.BuildReport(stack, inputs, scored, result, *topRisk)
	if *out == "-" {
		if err := auditlog.EncodeReport(os.Stdout, rep); err != nil {
			fatal("%v", err)
		}
	} else {
		if err := auditlog.WriteReport(*out, rep); err != nil {
			fatal("%v", err)
		}
		logger.Printf("report written to %s", *out)
	}
	logger.Printf("replayed %d entries for %d analysts: compared=%d mismatches=%d skipped=%d",
		rep.Entries, len(rep.Analysts), rep.Compared, rep.Mismatches, rep.Skipped)
	if *verify && (rep.Mismatches > 0 || malformed > 0) {
		fatal("verification failed: %d mismatches, %d malformed lines", rep.Mismatches, malformed)
	}
}
