// Documented invocations must use flags the commands define: an example
// in the docs naming a removed or misspelled flag fails here instead of
// at a reader's terminal.
package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docCommands are the binaries whose invocations the docs are checked
// for.
var docCommands = []string{"auditserver", "auditdb", "auditreport", "loadgen"}

// helpFlag matches one flag line of the flag package's -h listing.
var helpFlag = regexp.MustCompile(`(?m)^  -([A-Za-z0-9][\w.-]*)`)

// docFlag matches a flag token: -name, --name or -name=value.
var docFlag = regexp.MustCompile(`^--?([A-Za-z][\w.-]*)`)

// inlineCode matches a markdown code span.
var inlineCode = regexp.MustCompile("`[^`]+`")

func TestDocumentedFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary builds in -short mode")
	}
	dir := t.TempDir()
	defined := make(map[string]map[string]bool)
	for _, cmd := range docCommands {
		bin := filepath.Join(dir, cmd)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
		// -h exits non-zero for some commands; the listing is what counts.
		out, _ := exec.Command(bin, "-h").CombinedOutput()
		flags := map[string]bool{"h": true, "help": true}
		for _, m := range helpFlag.FindAllSubmatch(out, -1) {
			flags[string(m[1])] = true
		}
		if len(flags) == 2 {
			t.Fatalf("%s -h listed no flags:\n%s", cmd, out)
		}
		defined[cmd] = flags
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		for _, u := range docFlagUses(t, doc) {
			if !defined[u.cmd][u.flag] {
				t.Errorf("%s:%d: %s has no flag -%s", doc, u.line, u.cmd, u.flag)
			}
		}
	}
}

// flagUse is one flag token found after a command name in the docs.
type flagUse struct {
	cmd, flag string
	line      int
}

// docToken is one whitespace-separated word of a doc and its line.
type docToken struct {
	text string
	line int
}

// docFlagUses returns the flags passed to docCommands in path's fenced
// code blocks and inline code spans. A fenced line ending in `\`
// continues onto the next, as in a shell.
func docFlagUses(t *testing.T, path string) []flagUse {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var uses []flagUse
	var cmdline []docToken
	fenced, lineNo := false, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, span := range inlineCode.FindAllString(line, -1) {
				uses = append(uses, scanCommand(tokens(strings.Trim(span, "`"), lineNo))...)
			}
			continue
		}
		body, more := strings.CutSuffix(strings.TrimRight(line, " \t"), `\`)
		cmdline = append(cmdline, tokens(body, lineNo)...)
		if !more {
			uses = append(uses, scanCommand(cmdline)...)
			cmdline = nil
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return uses
}

func tokens(s string, line int) []docToken {
	var out []docToken
	for _, w := range strings.Fields(s) {
		out = append(out, docToken{w, line})
	}
	return out
}

// scanCommand attributes each flag token to the nearest preceding
// command name. A shell operator ends the command; a comment ends the
// line.
func scanCommand(toks []docToken) []flagUse {
	var uses []flagUse
	cmd := ""
	for _, tok := range toks {
		switch {
		case strings.HasPrefix(tok.text, "#"):
			return uses
		case strings.ContainsAny(tok.text, "|;&<>()"):
			cmd = ""
		case slices.Contains(docCommands, filepath.Base(tok.text)):
			cmd = filepath.Base(tok.text)
		case cmd != "":
			if m := docFlag.FindStringSubmatch(tok.text); m != nil {
				uses = append(uses, flagUse{cmd: cmd, flag: m[1], line: tok.line})
			}
		}
	}
	return uses
}
