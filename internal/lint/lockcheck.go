package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// Lockcheck returns the mutex-discipline analyzer. Struct fields carry
//
//	// auditlint:guardedby(mu)
//
// annotations naming a sibling mutex field; every read or write of such
// a field must then happen with that mutex held. "Held" comes from the
// held-lock scan lockorder also uses (lockScanner), matched per
// instance: an entry covers the access only if it locks mu on the same
// base expression as the access (`e`, `sh`, `c.s`, ...). Entries come
// from:
//
//   - base.mu.Lock() / base.mu.RLock()           (cleared by Unlock/RUnlock)
//   - if !base.mu.TryLock() { return/continue }  (the guard-clause idiom)
//   - if base.mu.TryLock() { ...access... }
//   - a call to a function annotated // auditlint:acquires(mu) with base
//     as an argument, or assigning its result to base — for lock-wrapper
//     helpers and lookup functions that return an entity locked.
//
// Two escape hatches keep the pass honest without path-sensitive
// analysis: functions whose name ends in "Locked" are exempt (the
// repo-wide convention for "caller holds the lock"), and individual
// accesses can carry //auditlint:allow lockcheck <reason>.
//
// An inline function literal is checked under the locks held where it
// is written. A `go func() { ... }` literal starts a fresh lock context:
// locks held by the spawner do not protect the goroutine's body.
func Lockcheck() *Analyzer {
	return &Analyzer{
		Name: "lockcheck",
		Doc:  "guardedby-annotated fields only accessed under their mutex",
		Run:  runLockcheck,
	}
}

type guardInfo struct {
	Mutex  string // sibling mutex field name
	Struct string // declaring struct's type name, for diagnostics
}

// collectGuards gathers field -> guardInfo from guardedby annotations
// and func -> mutex from acquires annotations, program-wide. Annotations
// naming a mutex field that does not exist in the struct are reported.
func collectGuards(prog *Program) (map[*types.Var]guardInfo, map[*types.Func]string, []Finding) {
	fields := map[*types.Var]guardInfo{}
	acquires := map[*types.Func]string{}
	var bad []Finding
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Doc == nil {
						continue
					}
					for _, c := range d.Doc.List {
						if mu, ok := parenDirective(c.Text, "acquires"); ok {
							if fn, ok := prog.Info.Defs[d.Name].(*types.Func); ok {
								acquires[fn] = mu
							}
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						bad = append(bad, collectStructGuards(prog, ts.Name.Name, st, fields)...)
					}
				}
			}
		}
	}
	return fields, acquires, bad
}

func collectStructGuards(prog *Program, structName string, st *ast.StructType, fields map[*types.Var]guardInfo) []Finding {
	names := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			names[n.Name] = true
		}
	}
	var bad []Finding
	for _, f := range st.Fields.List {
		mu := ""
		for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if arg, ok := parenDirective(c.Text, "guardedby"); ok {
					mu = arg
				}
			}
		}
		if mu == "" {
			continue
		}
		if !names[mu] {
			bad = append(bad, Finding{
				Analyzer: "lockcheck",
				Pos:      prog.Fset.Position(f.Pos()),
				Message:  "guardedby names mutex " + mu + ", which is not a field of " + structName,
				Hint:     "name a sibling sync.Mutex/RWMutex field",
			})
			continue
		}
		for _, n := range f.Names {
			if v, ok := prog.Info.Defs[n].(*types.Var); ok {
				fields[v] = guardInfo{Mutex: mu, Struct: structName}
			}
		}
	}
	return bad
}

func runLockcheck(prog *Program) []Finding {
	s := prog.lockScan()
	return append(append([]Finding(nil), s.badGuards...), s.unguarded...)
}

// checkAccess flags sel if it names a guardedby field whose mutex no
// held entry locks on the same base expression.
func (s *lockScanner) checkAccess(fn *types.Func, sel *ast.SelectorExpr, held []heldLock) {
	v, ok := s.prog.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || strings.HasSuffix(fn.Name(), "Locked") {
		return // the Locked suffix: caller holds the lock
	}
	gi, guarded := s.guards[v]
	if !guarded {
		return
	}
	base := exprString(sel.X)
	for _, h := range held {
		if h.class.name == gi.Mutex && slices.Contains(h.bases, base) {
			return
		}
	}
	s.unguarded = append(s.unguarded, Finding{
		Analyzer: "lockcheck",
		Pos:      s.prog.Fset.Position(sel.Sel.Pos()),
		Message:  gi.Struct + "." + v.Name() + " (guardedby " + gi.Mutex + ") accessed without holding " + base + "." + gi.Mutex,
		Hint:     "lock " + base + "." + gi.Mutex + " first, rename the function with a Locked suffix if the caller holds it, or annotate the lock-acquiring helper with auditlint:acquires(" + gi.Mutex + ")",
	})
}
