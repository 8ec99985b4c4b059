package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The loader type-checks the module with the standard library only:
// `go list -deps -export -json` enumerates the package graph and hands
// us compiler export data for out-of-module dependencies (the go command
// builds and caches it), while packages of the main module are parsed
// and type-checked from source so analyzers see their syntax, comments
// and full types.Info. This is the same split x/tools/go/packages makes,
// shrunk to what auditlint needs.

type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct {
		Err string
	}
}

type loader struct {
	fset    *token.FileSet
	info    *types.Info
	exports map[string]string   // dep import path -> export data file
	locals  map[string]*listPkg // main-module packages, from source
	checked map[string]*Package
	stack   []string // cycle guard (shouldn't trigger on a buildable module)
	gc      types.Importer
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

func newLoader(fset *token.FileSet) *loader {
	l := &loader{
		fset:    fset,
		info:    newInfo(),
		exports: map[string]string{},
		locals:  map[string]*listPkg{},
		checked: map[string]*Package{},
	}
	l.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("auditlint: no export data for %q", path)
		}
		return os.Open(f)
	})
	return l
}

// Import implements types.Importer over the split package graph.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if lp, ok := l.locals[path]; ok {
		pkg, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.gc.Import(path)
}

// check parses and type-checks one main-module package (memoized).
func (l *loader) check(lp *listPkg) (*Package, error) {
	if p, ok := l.checked[lp.ImportPath]; ok {
		return p, nil
	}
	for _, s := range l.stack {
		if s == lp.ImportPath {
			return nil, fmt.Errorf("auditlint: import cycle through %q", lp.ImportPath)
		}
	}
	l.stack = append(l.stack, lp.ImportPath)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(lp.ImportPath, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("auditlint: type-checking %s: %w", lp.ImportPath, err)
	}
	p := &Package{Path: lp.ImportPath, Dir: lp.Dir, Files: files, Pkg: tpkg}
	l.checked[lp.ImportPath] = p
	return p, nil
}

func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// LoadPackages loads the main-module packages matched by patterns
// (plus, from source, any main-module packages they depend on), rooted
// at dir. Out-of-module dependencies are satisfied by compiler export
// data and do not appear in the returned Program.
func LoadPackages(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"-deps", "-export", "-json=Dir,ImportPath,Name,Export,GoFiles,Standard,Module,Error"}, patterns...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	l := newLoader(token.NewFileSet())
	var order []string
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, errors.New("go list: " + p.Error.Err)
		}
		if p.Module != nil && p.Module.Main {
			l.locals[p.ImportPath] = p
			order = append(order, p.ImportPath)
		} else {
			l.exports[p.ImportPath] = p.Export
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("auditlint: no main-module packages listed")
	}
	prog := &Program{Fset: l.fset, Info: l.info}
	// -deps emits dependencies first, so iterating in order type-checks
	// each package after everything it imports.
	for _, path := range order {
		p, err := l.check(l.locals[path])
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, p)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// LoadDir loads the single package in dir (non-test files only) under
// the given import path, resolving its imports — which must all be
// standard library — via export data. This is the testdata loader: the
// import path is caller-chosen so path-scoped analyzers can be pointed
// at or away from a fixture.
func LoadDir(dir, importPath string) (*Program, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(token.NewFileSet())
	var files []*ast.File
	imports := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			imports[path] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("auditlint: no Go files in %s", dir)
	}
	if len(imports) > 0 {
		var paths []string
		for p := range imports {
			if p == "unsafe" {
				continue
			}
			paths = append(paths, p)
		}
		sort.Strings(paths)
		pkgs, err := goList(dir, append([]string{"-deps", "-export", "-json=ImportPath,Export,Standard,Error"}, paths...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Error != nil {
				return nil, errors.New("go list: " + p.Error.Err)
			}
			if !p.Standard {
				return nil, fmt.Errorf("auditlint: testdata package imports non-stdlib %q", p.ImportPath)
			}
			l.exports[p.ImportPath] = p.Export
		}
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("auditlint: type-checking %s: %w", dir, err)
	}
	return &Program{
		Fset: l.fset,
		Info: l.info,
		Pkgs: []*Package{{Path: importPath, Dir: dir, Files: files, Pkg: tpkg}},
	}, nil
}

// FixturePkg names one fixture package for LoadDirs: where its sources
// live and the import path it is type-checked under. The path is
// caller-chosen for the same reason as LoadDir's: path-scoped analyzers
// can be pointed at or away from the fixture — including a fixture that
// impersonates a module package (queryaudit/internal/persist/...) so
// cross-package seeds fire without importing the real module.
type FixturePkg struct {
	Dir        string
	ImportPath string
}

// LoadDirs loads several fixture packages into ONE Program sharing a
// FileSet and types.Info, resolving imports between them by their
// declared import paths. This is the cross-package golden harness: a
// taint root in one fixture package, the flagged call site in another.
// Packages must be listed dependencies-first; imports that are neither
// a listed fixture nor standard library are an error.
func LoadDirs(pkgs []FixturePkg) (*Program, error) {
	l := newLoader(token.NewFileSet())
	fixture := map[string]bool{}
	for _, fp := range pkgs {
		fixture[fp.ImportPath] = true
	}
	imports := map[string]bool{}
	for _, fp := range pkgs {
		entries, err := os.ReadDir(fp.Dir)
		if err != nil {
			return nil, err
		}
		lp := &listPkg{Dir: fp.Dir, ImportPath: fp.ImportPath}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(fp.Dir, name), nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			lp.GoFiles = append(lp.GoFiles, name)
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return nil, err
				}
				if !fixture[path] && path != "unsafe" {
					imports[path] = true
				}
			}
		}
		if len(lp.GoFiles) == 0 {
			return nil, fmt.Errorf("auditlint: no Go files in %s", fp.Dir)
		}
		l.locals[fp.ImportPath] = lp
	}
	if len(imports) > 0 {
		var paths []string
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := goList(pkgs[0].Dir, append([]string{"-deps", "-export", "-json=ImportPath,Export,Standard,Error"}, paths...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, errors.New("go list: " + p.Error.Err)
			}
			if !p.Standard {
				return nil, fmt.Errorf("auditlint: fixture package imports non-stdlib, non-fixture %q", p.ImportPath)
			}
			l.exports[p.ImportPath] = p.Export
		}
	}
	prog := &Program{Fset: l.fset, Info: l.info}
	for _, fp := range pkgs {
		p, err := l.check(l.locals[fp.ImportPath])
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, p)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// ModuleRoot walks up from start to the directory containing go.mod.
func ModuleRoot(start string) (string, error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("auditlint: no go.mod above %s", start)
		}
		dir = parent
	}
}
