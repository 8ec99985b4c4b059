package lint

// Explain is the -why backend: given a function name, it recomputes the
// engine's interprocedural facts and prints, for that function, which
// facts hold and the full witness chain from the function down to each
// root occurrence. The analyzers only report facts at in-scope sites;
// -why answers the follow-up question every finding provokes — "why
// does auditlint believe THIS helper reaches time.Now?" — for any
// module function, in or out of scope.

import (
	"fmt"
	"sort"
	"strings"

	"go/types"
)

// FindFuncs resolves a user-supplied name to module functions. The name
// matches a function when it equals the display name, a path-boundary
// suffix of it ("mcpar.Vote" for "internal/mcpar.Vote"), or the same
// with receiver punctuation stripped ("session.Manager.lockShard" for
// "(*internal/session.Manager).lockShard").
func FindFuncs(prog *Program, name string) []*types.Func {
	g := prog.Engine()
	var out []*types.Func
	for _, fn := range g.Funcs() {
		display := FuncDisplayName(fn)
		norm := strings.NewReplacer("(", "", ")", "", "*", "").Replace(display)
		if display == name || norm == name ||
			strings.HasSuffix(display, "/"+name) || strings.HasSuffix(norm, "/"+name) {
			out = append(out, fn)
		}
	}
	return out
}

// Explain renders the engine's facts for every function matching name.
// ok is false when nothing matched.
func Explain(prog *Program, name string) (string, bool) {
	fns := FindFuncs(prog, name)
	if len(fns) == 0 {
		return "", false
	}
	g := prog.Engine()
	wall := g.Propagate(dropAllowedSeeds(prog, "detrand", wallClockSeeds(g)))
	grand := g.Propagate(dropAllowedSeeds(prog, "detrand", globalRandSeeds(g)))
	sinks := g.Propagate(persistSinkSeeds(g, PersistPaths))
	loops := g.Propagate(loopForeverSeeds(g))
	life := g.Propagate(lifecycleSeeds(g))
	shared := sharedRandReturns(g)
	acq := prog.lockScan().acq

	var b strings.Builder
	for i, fn := range fns {
		if i > 0 {
			b.WriteString("\n")
		}
		explainFunc(&b, prog, g, fn, wall, grand, sinks, loops, life, shared, acq)
	}
	return b.String(), true
}

func explainFunc(b *strings.Builder, prog *Program, g *Graph, fn *types.Func,
	wall, grand, sinks, loops, life, shared TaintMap, acq map[*types.Func][]lockAcq) {
	display := FuncDisplayName(fn)
	fmt.Fprintf(b, "%s\n  declared at %s\n", display, prog.Fset.Position(fn.Pos()))
	fmt.Fprintf(b, "  call graph: %d callee edge(s), %d caller edge(s)\n",
		len(g.Callees(fn)), len(g.Callers(fn)))

	taints := []struct {
		tm    TaintMap
		label string
	}{
		{wall, "detrand: reaches a wall-clock read"},
		{grand, "detrand: reaches the global math/rand source"},
		{shared, "rngshare: returns a shared *rand.Rand"},
		{sinks, "errsink: reaches a persistence/response sink"},
		{loops, "ctxleak: contains or reaches an unconditional loop"},
		{life, "ctxleak: observes or reaches a lifecycle bound"},
	}
	for _, t := range taints {
		if t.tm[fn] == nil {
			fmt.Fprintf(b, "  - %s: no\n", t.label)
			continue
		}
		steps := g.Chain(fn, t.tm)
		fmt.Fprintf(b, "  + %s: %s\n", t.label, WitnessString(display, steps))
		for _, s := range steps {
			fmt.Fprintf(b, "      %s: %s (%s)\n", s.Pos, s.Func, s.Note)
		}
	}

	if list := acq[fn]; len(list) > 0 {
		classes := append([]lockAcq(nil), list...)
		sort.Slice(classes, func(i, j int) bool { return classes[i].class.String() < classes[j].class.String() })
		fmt.Fprintf(b, "  + lockorder: acquires %d class(es):\n", len(classes))
		for _, a := range classes {
			how := "directly"
			if a.next != nil {
				how = "via " + FuncDisplayName(a.next)
			}
			fmt.Fprintf(b, "      %s (%s, %s at %s)\n", a.class, a.op, how, prog.Fset.Position(a.pos))
		}
	} else {
		fmt.Fprintf(b, "  - lockorder: acquires no lock classes\n")
	}
}
