package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The exit-code contract: 0 on a clean tree, 1 when findings survive
// suppression, 2 on load/usage errors — stable across -analyzers
// subsets and -json, because CI and the pre-commit hook both branch on
// it. Exercised against the real binary over throwaway modules.

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func auditlintBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "auditlint-bin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "auditlint")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building auditlint: %v", buildErr)
	}
	return binPath
}

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(auditlintBin(t), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running auditlint %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), code
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func cleanModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod":  "module queryaudit\n\ngo 1.22\n",
		"util.go": "package util\n\nfunc Add(a, b int) int { return a + b }\n",
	})
}

// dirtyModule impersonates the repo's module: a decision-path package
// (queryaudit/internal/audit) reaches time.Now through a TWO-call chain
// in a helper package — the interprocedural regression fixture.
func dirtyModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod": "module queryaudit\n\ngo 1.22\n",
		"internal/timeutil/timeutil.go": "package timeutil\n\nimport \"time\"\n\n" +
			"// Stamp returns the current unix time via a private helper.\n" +
			"func Stamp() int64 { return nowUnix() }\n\n" +
			"func nowUnix() int64 { return time.Now().Unix() }\n",
		"internal/audit/decide.go": "package audit\n\nimport \"queryaudit/internal/timeutil\"\n\n" +
			"// Choose wrongly folds a timestamp into a decision.\n" +
			"func Choose(n int) int64 {\n\tif n > 0 {\n\t\treturn timeutil.Stamp()\n\t}\n\treturn 0\n}\n",
	})
}

func TestExitCodeCleanTree(t *testing.T) {
	dir := cleanModule(t)
	for _, args := range [][]string{
		{"-C", dir, "./..."},
		{"-C", dir, "-json", "./..."},
		{"-C", dir, "-analyzers", "detrand,errsink", "./..."},
	} {
		if out, errOut, code := run(t, args...); code != 0 {
			t.Errorf("%v: exit %d, want 0\nstdout: %s\nstderr: %s", args, code, out, errOut)
		}
	}
}

func TestExitCodeFindings(t *testing.T) {
	dir := dirtyModule(t)
	out, _, code := run(t, "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("dirty module: exit %d, want 1\n%s", code, out)
	}
	for _, needle := range []string{
		"call to internal/timeutil.Stamp reaches a wall-clock read in a decision path",
		"internal/audit.Choose → internal/timeutil.Stamp → internal/timeutil.nowUnix → time.Now",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("finding output missing %q:\n%s", needle, out)
		}
	}
}

func TestExitCodeAnalyzerSubsets(t *testing.T) {
	dir := dirtyModule(t)
	// The flagging analyzer alone still exits 1; subsets that cannot see
	// the defect — including each of the new passes — exit 0.
	if _, _, code := run(t, "-C", dir, "-analyzers", "detrand", "./..."); code != 1 {
		t.Errorf("-analyzers detrand: exit %d, want 1", code)
	}
	for _, subset := range []string{"floateq", "lockorder", "ctxleak", "errsink", "lockorder,ctxleak,errsink"} {
		if out, _, code := run(t, "-C", dir, "-analyzers", subset, "./..."); code != 0 {
			t.Errorf("-analyzers %s: exit %d, want 0\n%s", subset, code, out)
		}
	}
}

func TestExitCodeLoadAndUsageErrors(t *testing.T) {
	dir := cleanModule(t)
	if _, errOut, code := run(t, "-C", dir, "-analyzers", "nosuch", "./..."); code != 2 || !strings.Contains(errOut, "unknown analyzer") {
		t.Errorf("unknown analyzer: exit %d (%s), want 2", code, errOut)
	}
	if _, _, code := run(t, "-C", dir, "./does/not/exist"); code != 2 {
		t.Errorf("bad pattern: exit %d, want 2", code)
	}
	broken := writeModule(t, map[string]string{
		"go.mod": "module queryaudit\n\ngo 1.22\n",
		"bad.go": "package bad\n\nfunc Broken() int { return undefinedSymbol }\n",
	})
	if _, _, code := run(t, "-C", broken, "./..."); code != 2 {
		t.Errorf("type error: exit %d, want 2", code)
	}
	if _, _, code := run(t, "-C", dir, "-why", "no.Such", "./..."); code != 2 {
		t.Errorf("-why unknown function: exit %d, want 2", code)
	}
}

// TestWhyPrintsWitnessChain is the -why acceptance case: the helper
// whose summary reaches time.Now two calls down must explain itself
// with the full chain.
func TestWhyPrintsWitnessChain(t *testing.T) {
	dir := dirtyModule(t)
	out, _, code := run(t, "-C", dir, "-why", "timeutil.Stamp", "./...")
	if code != 0 {
		t.Fatalf("-why exit %d, want 0\n%s", code, out)
	}
	for _, needle := range []string{
		"internal/timeutil.Stamp",
		"reaches a wall-clock read: internal/timeutil.Stamp → internal/timeutil.nowUnix → time.Now",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("-why output missing %q:\n%s", needle, out)
		}
	}
	// The in-scope caller explains with the same chain, one hop longer.
	out, _, code = run(t, "-C", dir, "-why", "audit.Choose", "./...")
	if code != 0 || !strings.Contains(out, "audit.Choose → internal/timeutil.Stamp → internal/timeutil.nowUnix → time.Now") {
		t.Errorf("-why audit.Choose: exit %d, missing chain:\n%s", code, out)
	}
}

type report struct {
	Schema    int      `json:"schema"`
	Analyzers []string `json:"analyzers"`
	Packages  []string `json:"packages"`
	Findings  []struct {
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
		Witness  []struct {
			Func string `json:"func"`
			Note string `json:"note"`
		} `json:"witness"`
	} `json:"findings"`
}

func decodeReport(t *testing.T, out string) report {
	t.Helper()
	var r report
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	return r
}

func TestJSONSchemaV3(t *testing.T) {
	dir := dirtyModule(t)
	out, _, code := run(t, "-C", dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("-json dirty: exit %d, want 1", code)
	}
	r := decodeReport(t, out)
	if r.Schema != 3 || len(r.Analyzers) != 8 {
		t.Fatalf("envelope = schema %d, %d analyzers", r.Schema, len(r.Analyzers))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["cache"]; ok {
		t.Fatalf("schema 3 has no cache key: %s", out)
	}
	if len(r.Findings) == 0 {
		t.Fatal("no findings in the JSON report")
	}
	f := r.Findings[0]
	if f.Analyzer != "detrand" || len(f.Witness) < 3 || f.Witness[len(f.Witness)-1].Note != "root" {
		t.Fatalf("finding lacks a rooted witness chain: %+v", f)
	}
	if !strings.Contains(strings.Join(r.Packages, " "), "queryaudit/internal/audit") {
		t.Fatalf("packages list missing the analyzed package: %v", r.Packages)
	}
}

// TestSharedLockScan runs lockcheck and lockorder, which read one
// held-lock scan, over a module with one defect for each: a guardedby
// field read without its mutex, and a two-class lock cycle. Each
// analyzer alone reports only its own defect.
func TestSharedLockScan(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module queryaudit\n\ngo 1.22\n",
		"store/store.go": `package store

import "sync"

type A struct {
	mu sync.Mutex
	// auditlint:guardedby(mu)
	n int
}

type B struct {
	mu sync.Mutex
	n  int
}

func (a *A) Peek() int { return a.n }

func LockAB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func LockBA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}
`,
	})
	for _, name := range []string{"lockcheck", "lockorder"} {
		out, _, code := run(t, "-C", dir, "-analyzers", name, "./...")
		if code != 1 {
			t.Errorf("-analyzers %s: exit %d, want 1\n%s", name, code, out)
		}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.Contains(line, ": [") && !strings.Contains(line, "["+name+"]") {
				t.Errorf("-analyzers %s printed another analyzer's finding: %s", name, line)
			}
		}
		if !strings.Contains(out, "["+name+"]") {
			t.Errorf("-analyzers %s: no [%s] finding:\n%s", name, name, out)
		}
	}
	if out, _, code := run(t, "-C", dir, "-analyzers", "detrand", "./..."); code != 0 {
		t.Errorf("-analyzers detrand: exit %d, want 0\n%s", code, out)
	}
}
