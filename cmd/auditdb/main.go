// Command auditdb is an interactive audited statistical database: it
// loads a synthetic company-salary table and answers SQL-ish aggregate
// queries through the paper's simulatable auditors, denying any query
// whose answer could be stitched together with past answers to reveal an
// individual salary.
//
// The REPL is one session (session.DefaultAnalyst) on auditserver's
// stack and session manager. -auditors prob takes its parameters from
// core.DefaultStackConfig and scales salaries to [0,1], so -csv
// requires -auditors full.
//
// Usage:
//
//	auditdb [-n 300] [-seed 1] [-auditors full|prob] [-session-snapshot FILE]
//	auditdb -csv table.csv [-sensitive salary] [-numeric age]
//
// With -session-snapshot, FILE's session journal is replayed at startup
// and FILE is rewritten atomically after every query and update; after
// an update it also holds the table's salaries, which a journal alone
// does not. It is the file auditserver -session-snapshot writes, so a
// recorded session is verified offline with the same stack flags:
//
//	auditreport -auditors full -n 300 -seed 1 -verify FILE
//
// Session commands:
//
//	SELECT sum(salary) WHERE age BETWEEN 30 AND 40
//	SELECT max(salary) WHERE zip = '94305'
//	SELECT avg(salary) WHERE dept = 'eng' AND age >= 40
//	.schema      describe the table
//	.stats       protocol counters
//	.know [I]    per-record exposure derived by the auditors
//	.update I V  modify record I's salary to V (full auditors only)
//	.quit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/persist"
	"queryaudit/internal/session"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole program: it returns the exit code.
func run(args []string, in io.Reader, out, errOut io.Writer) int {
	flags := flag.NewFlagSet("auditdb", flag.ContinueOnError)
	flags.SetOutput(errOut)
	// Of the stack flags auditdb takes the table and the family; the prob
	// parameters stay DefaultStackConfig's.
	stack := core.DefaultStackConfig()
	stackFlags := flag.NewFlagSet("", flag.ContinueOnError)
	stack.RegisterFlags(stackFlags)
	for _, name := range []string{"n", "seed", "auditors"} {
		f := stackFlags.Lookup(name)
		flags.Var(f.Value, f.Name, f.Usage)
	}
	snapPath := flags.String("session-snapshot", "", "session journal file: replayed at startup, rewritten after every query and update")
	csvPath := flags.String("csv", "", "load the table from a headered CSV instead of generating one (-auditors full only)")
	sensitive := flags.String("sensitive", "salary", "sensitive column name for -csv")
	csvNum := flags.String("numeric", "age", "comma-separated numeric public columns for -csv")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	mgr, ds, err := open(stack, *snapPath, *csvPath, *sensitive, *csvNum)
	if err != nil {
		fmt.Fprintf(errOut, "auditdb: %v\n", err)
		return 1
	}
	defer mgr.Close()
	res := core.NewSQLResolver(mgr.Resolver())

	fmt.Fprintf(out, "auditdb: %s (auditors=%s)\n", ds.Describe(), stack.Family)
	if st := mgr.Stats(session.DefaultAnalyst); st.LogEvents > 0 {
		fmt.Fprintf(out, "restored %d journal events from %s\n", st.LogEvents, *snapPath)
	}
	fmt.Fprintln(out, `type SQL ("SELECT sum(salary) WHERE age BETWEEN 30 AND 40"), or .help`)
	sc := bufio.NewScanner(in)
	for fmt.Fprint(out, "auditdb> "); sc.Scan(); fmt.Fprint(out, "auditdb> ") {
		fields := strings.Fields(sc.Text())
		var grew bool
		switch {
		case len(fields) == 0:
			continue
		case fields[0] == ".quit" || fields[0] == ".exit":
			return 0
		case strings.HasPrefix(fields[0], "."):
			grew = command(out, mgr, ds, *sensitive, fields)
		default:
			grew = ask(out, mgr, res, *sensitive, sc.Text())
		}
		if !grew || *snapPath == "" {
			continue
		}
		// Keep FILE current with the journal that just grew.
		if _, err := persist.SaveFile(*snapPath, mgr, 0); err != nil {
			fmt.Fprintf(errOut, "auditdb: saving %s: %v\n", *snapPath, err)
			return 1
		}
	}
	return 0
}

// open loads the table — generated from the stack, or read from csvPath
// — builds a session manager over the stack's auditors, and replays the
// journal at snapPath if that file exists.
func open(stack core.StackConfig, snapPath, csvPath, sensitive, csvNum string) (*session.Manager, *dataset.Dataset, error) {
	if err := stack.Validate(); err != nil {
		return nil, nil, err
	}
	var ds *dataset.Dataset
	if csvPath == "" {
		ds = stack.NewDataset()
	} else {
		if stack.Family != "full" {
			return nil, nil, errors.New("-csv requires -auditors full: the prob auditors guard values scaled to [0,1], and a CSV table is not")
		}
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		ds, err = dataset.LoadCSV(f, dataset.CSVOptions{
			Sensitive:       sensitive,
			Numeric:         strings.Split(csvNum, ","),
			RequireDistinct: true, // the max∧min auditor needs it
		})
		if err != nil {
			return nil, nil, err
		}
		stack.N = ds.N()
	}
	spec := core.NewEngineSpec(ds)
	if err := stack.RegisterAuditors(spec); err != nil {
		return nil, nil, err
	}
	mgr, err := session.NewManager(spec, session.Config{})
	if err != nil {
		return nil, nil, err
	}
	if snapPath != "" {
		if _, _, err := persist.LoadFile(snapPath, mgr); err != nil {
			mgr.Close()
			return nil, nil, fmt.Errorf("%s: %w", snapPath, err)
		}
	}
	return mgr, ds, nil
}

// ask resolves one SQL statement through res and asks it; it reports
// whether the session's journal grew.
func ask(out io.Writer, mgr *session.Manager, res *core.SQLResolver, sensitive, sql string) bool {
	q, err := res.ResolveSQL(sensitive, sql)
	var resp core.Response
	if err == nil {
		resp, err = mgr.Ask(session.DefaultAnalyst, q)
	}
	switch {
	case err != nil:
		fmt.Fprintf(out, "error: %v\n", err)
		return false
	case resp.Denied:
		fmt.Fprintln(out, "DENIED (answering could compromise an individual's salary)")
	default:
		fmt.Fprintf(out, "%.2f\n", resp.Answer)
	}
	return true
}

// command handles a dot-command other than .quit; it reports whether
// the session's journal grew.
func command(out io.Writer, mgr *session.Manager, ds *dataset.Dataset, sensitive string, fields []string) bool {
	switch fields[0] {
	case ".help":
		fmt.Fprintln(out, ".schema | .stats | .know [I] | .update I V | .quit")
	case ".know":
		printKnowledge(out, mgr, fields)
	case ".schema":
		fmt.Fprintln(out, ds.Describe())
		fmt.Fprintf(out, "sensitive attribute: %s (aggregate target)\n", sensitive)
	case ".stats":
		st := mgr.Stats(session.DefaultAnalyst)
		fmt.Fprintf(out, "answered=%d denied=%d records=%d modifications=%d\n",
			st.Answered, st.Denied, st.Records, st.Modifications)
	case ".update":
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: .update INDEX VALUE")
			return false
		}
		idx, err1 := strconv.Atoi(fields[1])
		val, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			fmt.Fprintln(out, "usage: .update INDEX VALUE")
			return false
		}
		if err := mgr.Update(idx, val); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return false
		}
		fmt.Fprintf(out, "record %d updated\n", idx)
		return true
	default:
		fmt.Fprintf(out, "unknown command %s (try .help)\n", fields[0])
	}
	return false
}

// printKnowledge shows per-record attacker exposure from every auditor
// that can report it (optionally restricted to one record index).
func printKnowledge(out io.Writer, mgr *session.Manager, fields []string) {
	only := -1
	if len(fields) == 2 {
		if v, err := strconv.Atoi(fields[1]); err == nil {
			only = v
		}
	}
	know, err := mgr.Knowledge(session.DefaultAnalyst)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	if len(know) == 0 {
		fmt.Fprintln(out, "no registered auditor reports knowledge")
	}
	names := make([]string, 0, len(know))
	for name := range know {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "-- %s --\n", name)
		for _, e := range know[name] {
			if only >= 0 && e.Index != only {
				continue
			}
			if only < 0 && math.IsInf(e.Lower, -1) && math.IsInf(e.Upper, 1) && !e.Pinned {
				continue // nothing derived; keep the listing short
			}
			lb, ub := "[", "]"
			if e.LowerStrict {
				lb = "("
			}
			if e.UpperStrict {
				ub = ")"
			}
			lo, hi := fmt.Sprintf("%s%.2f", lb, e.Lower), fmt.Sprintf("%.2f%s", e.Upper, ub)
			if math.IsInf(e.Lower, -1) {
				lo = "(-inf"
			}
			if math.IsInf(e.Upper, 1) {
				hi = "+inf)"
			}
			pin := ""
			if e.Pinned {
				pin = "  PINNED"
			}
			fmt.Fprintf(out, "  x[%3d] ∈ %s, %s%s\n", e.Index, lo, hi, pin)
		}
	}
}
