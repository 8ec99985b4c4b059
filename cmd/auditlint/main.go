// Command auditlint runs the repo's custom static-analysis suite (see
// internal/lint and docs/LINTING.md) over the module:
//
//	go run ./cmd/auditlint ./...
//
// It prints one diagnostic per finding as file:line:col: [analyzer]
// message (fix: hint), followed by the witness call chain for
// interprocedural findings, and exits 1 if anything unsuppressed was
// found, 2 on load/usage errors, 0 on a clean tree. Findings are
// suppressed only by an explicit //auditlint:allow <analyzer> <reason>
// comment.
//
// -json emits the schema-3 envelope: analyzers run, packages analyzed,
// and the findings with their witness chains. -why pkg.Func prints the
// engine's interprocedural facts for one function (which taints reach
// it, and the chains proving it).
//
// The tool is built purely on the Go standard library (go/parser,
// go/ast, go/types, export data served by `go list -export`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"queryaudit/internal/lint"
)

// jsonReport is the -json schema-3 envelope.
type jsonReport struct {
	Schema    int            `json:"schema"`
	Tool      string         `json:"tool"`
	Analyzers []string       `json:"analyzers"`
	Packages  []string       `json:"packages"`
	Findings  []lint.Finding `json:"findings"`
}

func main() {
	var (
		listOnly = flag.Bool("list", false, "list analyzers and exit")
		jsonOut  = flag.Bool("json", false, "emit the schema-3 JSON report")
		only     = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
		chdir    = flag.String("C", ".", "directory to resolve packages from")
		why      = flag.String("why", "", "explain the engine's facts for a function (e.g. mcpar.Vote) and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: auditlint [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *listOnly {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "auditlint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = sel
	}
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}

	prog, err := lint.LoadPackages(*chdir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditlint:", err)
		os.Exit(2)
	}

	if *why != "" {
		text, ok := lint.Explain(prog, *why)
		if !ok {
			fmt.Fprintf(os.Stderr, "auditlint: no module function matches %q\n", *why)
			os.Exit(2)
		}
		fmt.Print(text)
		return
	}

	findings := lint.Run(prog, analyzers)
	if *jsonOut {
		rep := jsonReport{
			Schema:    3,
			Tool:      "auditlint",
			Analyzers: names,
			Findings:  findings,
		}
		for _, p := range prog.Pkgs {
			rep.Packages = append(rep.Packages, p.Path)
		}
		if rep.Findings == nil {
			rep.Findings = []lint.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "auditlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "auditlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
