package lint

// The interprocedural engine: a module-wide call graph computed from the
// single shared types.Info, with per-function summaries propagated to a
// fixed point. v1's analyzers were purely lexical — they saw one
// function at a time — which was enough for the original engine code but
// cannot follow the lock, context, and RNG plumbing the replication,
// sharding, and retrospective-audit layers thread through deep call
// chains. The engine gives every analyzer the same two primitives:
//
//   - Callees/Callers: static call edges (direct calls to module
//     functions) plus class-hierarchy edges for interface method calls
//     (a call through an interface fans out to the method on every
//     module type that implements it — "interfaces actually bound in
//     the module", no whole-program soundness pretensions beyond that);
//
//   - Propagate: a deterministic BFS that lifts a per-function seed set
//     ("calls time.Now here") to its transitive callers, recording for
//     every reached function the next hop toward the seed so findings
//     can print the full witness chain.
//
// Function literals are attributed to their enclosing declared function:
// a call made inside a closure is a call the declaring function may
// make. Goroutine-spawn sites are NOT edges (the spawned body runs on
// its own schedule); ctxleak walks them explicitly.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Edge is one call-graph edge: caller invokes callee at Pos. Dynamic
// marks interface-dispatch edges (the callee is one possible target).
type Edge struct {
	Caller  *types.Func
	Callee  *types.Func
	Pos     token.Pos
	Dynamic bool
}

// Graph is the module call graph plus the decl index analyzers need to
// walk function bodies.
type Graph struct {
	prog *Program
	// Decls maps every module function (and method) that has a body to
	// its syntax and package.
	Decls map[*types.Func]*FuncInfo
	// callees/callers are the edge lists, sorted by source position so
	// every traversal below is deterministic.
	callees map[*types.Func][]Edge
	callers map[*types.Func][]Edge
	// funcs is Decls' key set in source order.
	funcs []*types.Func
}

// FuncInfo ties a module function to its syntax.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// NewGraph builds the call graph for prog. The result is deterministic:
// all edge lists and traversal orders follow source positions in the
// shared FileSet.
func NewGraph(prog *Program) *Graph {
	g := &Graph{
		prog:    prog,
		Decls:   map[*types.Func]*FuncInfo{},
		callees: map[*types.Func][]Edge{},
		callers: map[*types.Func][]Edge{},
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := prog.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Decls[fn] = &FuncInfo{Pkg: pkg, Decl: fd}
			}
		}
	}
	impls := g.interfaceImpls()
	for fn, info := range g.Decls {
		caller := fn
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(prog.Info, call)
			if callee == nil {
				return true
			}
			if _, local := g.Decls[callee]; local {
				g.addEdge(Edge{Caller: caller, Callee: callee, Pos: call.Pos()})
				return true
			}
			// An interface method call: fan out to the method on every
			// module type implementing the interface.
			if targets := impls[callee]; len(targets) > 0 {
				for _, t := range targets {
					g.addEdge(Edge{Caller: caller, Callee: t, Pos: call.Pos(), Dynamic: true})
				}
			}
			return true
		})
	}
	for fn := range g.Decls {
		g.funcs = append(g.funcs, fn)
	}
	sort.Slice(g.funcs, func(i, j int) bool { return g.funcs[i].Pos() < g.funcs[j].Pos() })
	for _, edges := range g.callees {
		sortEdges(edges)
	}
	for _, edges := range g.callers {
		sortEdges(edges)
	}
	return g
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Pos != edges[j].Pos {
			return edges[i].Pos < edges[j].Pos
		}
		return edges[i].Callee.Pos() < edges[j].Callee.Pos()
	})
}

func (g *Graph) addEdge(e Edge) {
	g.callees[e.Caller] = append(g.callees[e.Caller], e)
	g.callers[e.Callee] = append(g.callers[e.Callee], e)
}

// Callees returns fn's outgoing edges in source order.
func (g *Graph) Callees(fn *types.Func) []Edge { return g.callees[fn] }

// Callers returns fn's incoming edges in source order.
func (g *Graph) Callers(fn *types.Func) []Edge { return g.callers[fn] }

// Funcs returns every module function with a body, in source order.
func (g *Graph) Funcs() []*types.Func { return g.funcs }

// interfaceImpls maps each interface method used somewhere in the module
// to the concrete methods of module-declared types that implement the
// interface — the "actually bound in the module" dispatch set.
func (g *Graph) interfaceImpls() map[*types.Func][]*types.Func {
	// Gather the named (non-interface) types declared by module packages.
	var concrete []types.Type
	for _, pkg := range g.prog.Pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			concrete = append(concrete, named)
		}
	}
	sort.Slice(concrete, func(i, j int) bool {
		return concrete[i].String() < concrete[j].String()
	})

	impls := map[*types.Func][]*types.Func{}
	// Every *types.Func used as a call target whose receiver is an
	// interface is a dispatch point.
	seen := map[*types.Func]bool{}
	for _, obj := range g.prog.Info.Uses {
		m, ok := obj.(*types.Func)
		if !ok || seen[m] {
			continue
		}
		seen[m] = true
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, t := range concrete {
			ptr := types.NewPointer(t)
			if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			target, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if _, local := g.Decls[target]; local {
				impls[m] = append(impls[m], target)
			}
		}
		sort.Slice(impls[m], func(i, j int) bool { return impls[m][i].Pos() < impls[m][j].Pos() })
	}
	return impls
}

// Taint is one function's relation to a seed fact: the position where
// the fact enters the function (a direct occurrence, or the call that
// reaches it) and the next function toward the root (nil at a seed).
type Taint struct {
	Root string // what the chain bottoms out at, e.g. "time.Now"
	Pos  token.Pos
	Next *types.Func
}

// TaintMap is the result of one propagation: every function from which
// the seed fact is reachable, with its witness hop.
type TaintMap map[*types.Func]*Taint

// Propagate lifts seeds to all transitive callers. BFS over the caller
// edges in deterministic order, so each function records the shortest
// (ties: source-order earliest) chain to a seed. Seed entries must have
// Next == nil and Pos set to the direct occurrence.
func (g *Graph) Propagate(seeds TaintMap) TaintMap {
	out := TaintMap{}
	var frontier []*types.Func
	for _, fn := range g.funcs {
		if t, ok := seeds[fn]; ok {
			out[fn] = t
			frontier = append(frontier, fn)
		}
	}
	for len(frontier) > 0 {
		var next []*types.Func
		for _, fn := range frontier {
			for _, e := range g.Callers(fn) {
				if _, done := out[e.Caller]; done {
					continue
				}
				out[e.Caller] = &Taint{Root: out[fn].Root, Pos: e.Pos, Next: fn}
				next = append(next, e.Caller)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].Pos() < next[j].Pos() })
		frontier = next
	}
	return out
}

// Chain renders the witness call chain for fn's taint as WitnessSteps,
// from fn's hop down to the root occurrence.
func (g *Graph) Chain(fn *types.Func, tm TaintMap) []WitnessStep {
	var steps []WitnessStep
	for cur := fn; cur != nil; {
		t := tm[cur]
		if t == nil {
			break
		}
		step := WitnessStep{Pos: g.prog.Fset.Position(t.Pos)}
		if t.Next != nil {
			step.Func = FuncDisplayName(t.Next)
			step.Note = "call"
		} else {
			step.Func = t.Root
			step.Note = "root"
		}
		steps = append(steps, step)
		cur = t.Next
	}
	return steps
}

// WitnessString renders a chain compactly for plain-text diagnostics:
// "a.F → b.G → time.Now".
func WitnessString(entry string, steps []WitnessStep) string {
	parts := []string{entry}
	for _, s := range steps {
		parts = append(parts, s.Func)
	}
	return strings.Join(parts, " → ")
}

// FuncDisplayName renders a function for diagnostics: package-qualified,
// with pointer receivers, module prefix trimmed to keep lines readable.
func FuncDisplayName(fn *types.Func) string {
	name := fn.FullName()
	return strings.ReplaceAll(name, "queryaudit/", "")
}

// engine caches the expensive shared structures on the Program so the
// analyzers build them once per Run.
type engine struct {
	graph *Graph
	locks *lockScanner
}

// Engine returns the program's lazily built interprocedural engine.
func (p *Program) Engine() *Graph {
	if p.eng == nil {
		p.eng = &engine{graph: NewGraph(p)}
	}
	return p.eng.graph
}

// lockScan returns the program's memoized held-lock scan, shared by
// lockcheck and lockorder.
func (p *Program) lockScan() *lockScanner {
	g := p.Engine()
	if p.eng.locks == nil {
		p.eng.locks = scanLocks(p, g)
	}
	return p.eng.locks
}
