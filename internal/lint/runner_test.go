package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness. Each testdata/src/<analyzer> fixture package
// carries
//
//	// want `regex`
//
// comments on the lines expected to produce findings (analysistest's
// convention, hand-rolled on the stdlib). Fixtures load through LoadDirs
// under a caller-chosen import path, so one file doubles as the hit case
// (loaded under a path the analyzer scopes to) and the miss case (a
// neutral path, zero findings expected). The fixtures also embed
// well-formed //auditlint:allow comments; if suppression broke, those
// lines would surface as unexpected findings and fail the golden check.

var wantRE = regexp.MustCompile("// want `([^`]*)`")

type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants scans the fixture directory's Go files for want comments.
func collectWants(t *testing.T, dir string) []wantSpec {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []wantSpec
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
			}
			wants = append(wants, wantSpec{file: path, line: i + 1, re: re})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments found in %s", dir)
	}
	return wants
}

func loadFixture(t *testing.T, name, importPath string) *Program {
	t.Helper()
	prog, err := LoadDirs([]FixturePkg{{Dir: filepath.Join("testdata", "src", name), ImportPath: importPath}})
	if err != nil {
		t.Fatalf("loading fixture %s as %s: %v", name, importPath, err)
	}
	return prog
}

// checkGolden runs the analyzers over the fixture and requires a 1:1
// match between findings and want comments, by file, line and message.
func checkGolden(t *testing.T, name, importPath string, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	findings := Run(loadFixture(t, name, importPath), analyzers)
	matchWants(t, findings, collectWants(t, dir))
}

// matchWants requires a 1:1 match between findings and want comments.
func matchWants(t *testing.T, findings []Finding, wants []wantSpec) {
	t.Helper()
	matched := make([]bool, len(wants))
outer:
	for _, f := range findings {
		for i, w := range wants {
			if !matched[i] && f.Pos.Filename == w.file && f.Pos.Line == w.line && w.re.MatchString(f.Message) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: want a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// checkGoldenDirs is the cross-package golden harness: several fixture
// directories loaded as one Program (LoadDirs), want comments collected
// from every directory.
func checkGoldenDirs(t *testing.T, pkgs []FixturePkg, analyzers ...*Analyzer) *Program {
	t.Helper()
	prog, err := LoadDirs(pkgs)
	if err != nil {
		t.Fatalf("loading fixture packages: %v", err)
	}
	var wants []wantSpec
	for _, fp := range pkgs {
		// Only directories carrying want comments contribute specs; an
		// all-clean helper package would trip collectWants's emptiness
		// check, so scan leniently here.
		entries, err := os.ReadDir(fp.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(fp.Dir, e.Name())
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, wantSpec{file: path, line: i + 1, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no want comments found in any fixture package")
	}
	matchWants(t, Run(prog, analyzers), wants)
	return prog
}

// checkClean runs the analyzers over the fixture under an import path
// they should not scope to and requires zero findings.
func checkClean(t *testing.T, name, importPath string, analyzers ...*Analyzer) {
	t.Helper()
	for _, f := range Run(loadFixture(t, name, importPath), analyzers) {
		t.Errorf("expected no findings under %s, got: %s", importPath, f)
	}
}

func TestDetrandGolden(t *testing.T) {
	checkGolden(t, "detrand", "queryaudit/internal/audit/lintfixture", Detrand(DecisionPathPrefixes))
}

func TestDetrandOffDecisionPath(t *testing.T) {
	checkClean(t, "detrand", "example.com/offpath", Detrand(DecisionPathPrefixes))
}

func TestRNGShareGolden(t *testing.T) {
	// rngshare is path-independent: a neutral import path still fires.
	checkGolden(t, "rngshare", "example.com/anywhere", RNGShare())
}

func TestFloatEqGolden(t *testing.T) {
	checkGolden(t, "floateq", "queryaudit/internal/interval/lintfixture", FloatEq(FloatEqPrefixes))
}

func TestFloatEqOffBoundsPath(t *testing.T) {
	checkClean(t, "floateq", "example.com/offpath", FloatEq(FloatEqPrefixes))
}

func TestAtomicWriteGolden(t *testing.T) {
	checkGolden(t, "atomicwrite", "example.com/anywhere", AtomicWrite(PersistPaths))
}

func TestAtomicWriteExemptInPersist(t *testing.T) {
	checkClean(t, "atomicwrite", "queryaudit/internal/persist/lintfixture", AtomicWrite(PersistPaths))
}

func TestLockcheckGolden(t *testing.T) {
	checkGolden(t, "lockcheck", "example.com/anywhere", Lockcheck())
}

func TestLockOrderGolden(t *testing.T) {
	// lockorder is path-independent.
	checkGolden(t, "lockorder", "example.com/anywhere", LockOrder())
}

func TestCtxLeakGolden(t *testing.T) {
	checkGolden(t, "ctxleak", "queryaudit/internal/replica/lintfixture", CtxLeak(CtxLeakPrefixes))
}

func TestCtxLeakOffServicePath(t *testing.T) {
	checkClean(t, "ctxleak", "example.com/offpath", CtxLeak(CtxLeakPrefixes))
}

func TestErrSinkGolden(t *testing.T) {
	checkGolden(t, "errsink", "example.com/anywhere", ErrSink(PersistPaths))
}

func xfixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

func TestCrossPackageDetrandTaint(t *testing.T) {
	// The wall-clock read is two calls deep in a helper package; the
	// decision-path caller one package over must be flagged.
	prog := checkGoldenDirs(t, []FixturePkg{
		{Dir: xfixture("xdetrand", "clockutil"), ImportPath: "example.com/clockutil"},
		{Dir: xfixture("xdetrand", "decide"), ImportPath: "queryaudit/internal/audit/lintfixture"},
	}, Detrand(DecisionPathPrefixes))

	// The finding must carry the full witness chain down to time.Now.
	findings := Run(prog, []*Analyzer{Detrand(DecisionPathPrefixes)})
	if len(findings) != 1 {
		t.Fatalf("want 1 finding, got %d", len(findings))
	}
	var funcs []string
	for _, w := range findings[0].Witness {
		funcs = append(funcs, w.Func)
	}
	chain := strings.Join(funcs, " → ")
	want := "example.com/clockutil.Stamp → example.com/clockutil.nowUnix → time.Now"
	if chain != want {
		t.Errorf("witness chain = %q, want %q", chain, want)
	}
}

func TestCrossPackageLockCycle(t *testing.T) {
	// Store.mu → Hub.mu exists only through interface dispatch to a type
	// declared in the second package; Hub.mu → Store.mu is a plain call.
	checkGoldenDirs(t, []FixturePkg{
		{Dir: xfixture("xlock", "store"), ImportPath: "example.com/xlock/store"},
		{Dir: xfixture("xlock", "notify"), ImportPath: "example.com/xlock/notify"},
	}, LockOrder())
}

func TestCrossPackageCtxLeak(t *testing.T) {
	// The loop is one call deep in another package: flagged when the ctx
	// is dropped at the go statement, clean when threaded through.
	checkGoldenDirs(t, []FixturePkg{
		{Dir: xfixture("xctx", "runner"), ImportPath: "example.com/xctx/runner"},
		{Dir: xfixture("xctx", "svc"), ImportPath: "queryaudit/internal/replica/lintfixture"},
	}, CtxLeak(CtxLeakPrefixes))
}

func TestExplainWitnessChain(t *testing.T) {
	prog, err := LoadDirs([]FixturePkg{
		{Dir: xfixture("xdetrand", "clockutil"), ImportPath: "example.com/clockutil"},
		{Dir: xfixture("xdetrand", "decide"), ImportPath: "queryaudit/internal/audit/lintfixture"},
	})
	if err != nil {
		t.Fatal(err)
	}
	text, ok := Explain(prog, "clockutil.Stamp")
	if !ok {
		t.Fatal("Explain found no function for clockutil.Stamp")
	}
	for _, needle := range []string{
		"example.com/clockutil.Stamp",
		"reaches a wall-clock read",
		"example.com/clockutil.nowUnix",
		"time.Now",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("Explain output missing %q:\n%s", needle, text)
		}
	}
	if _, ok := Explain(prog, "no.Such"); ok {
		t.Error("Explain claimed to match no.Such")
	}
}

func TestMalformedAllowIsAFinding(t *testing.T) {
	findings := Run(loadFixture(t, "badallow", "example.com/anywhere"), DefaultAnalyzers())
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "auditlint" || !strings.Contains(f.Message, "malformed") {
		t.Errorf("want a malformed-allow finding, got: %s", f)
	}
}
