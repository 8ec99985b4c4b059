// Resolution-path equivalence: the indexed, interned, memoized query
// resolver must be observationally identical to the naive per-request
// dataset scan — not just "same sets", but same DECISIONS, since the
// audit protocol is stateful and a single divergent set would fork every
// decision after it. Two engine stacks (exact full-disclosure auditors
// and the Section 3 probabilistic ones) replay the same SQL workload
// through both paths and must agree answer-for-answer, denial-for-
// denial, with identical transcript digests at the end.
package main

import (
	"fmt"
	"math/rand"
	"testing"

	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// equivWorkload generates a deterministic mixed SQL workload over the
// company schema, with heavy repetition (the hot-key shape the memo is
// for) and occasional malformed/empty statements.
func equivWorkload(rng *rand.Rand, steps int) []string {
	aggs := []string{"sum", "max", "min"}
	depts := []string{"eng", "sales", "hr", "finance", "legal", "nosuch"}
	zips := []string{"94305", "94301", "94025", "95014", "94040"}
	var hot []string
	for i := 0; i < 8; i++ {
		lo := 21 + rng.Intn(30)
		hot = append(hot, fmt.Sprintf("SELECT %s(salary) WHERE age BETWEEN %d AND %d",
			aggs[rng.Intn(len(aggs))], lo, lo+5+rng.Intn(20)))
	}
	out := make([]string, 0, steps)
	for i := 0; i < steps; i++ {
		switch rng.Intn(5) {
		case 0, 1: // hot statement, repeated verbatim
			out = append(out, hot[rng.Intn(len(hot))])
		case 2:
			out = append(out, fmt.Sprintf("SELECT %s(salary) WHERE dept = '%s'",
				aggs[rng.Intn(len(aggs))], depts[rng.Intn(len(depts))]))
		case 3:
			out = append(out, fmt.Sprintf("SELECT %s(salary) WHERE zip = '%s' AND age >= %d",
				aggs[rng.Intn(len(aggs))], zips[rng.Intn(len(zips))], 18+rng.Intn(40)))
		default:
			out = append(out, fmt.Sprintf("SELECT %s(salary) WHERE age <= %d",
				aggs[rng.Intn(len(aggs))], 20+rng.Intn(50)))
		}
	}
	return out
}

// equivStacks builds two identical stacks: naive is a bare engine whose
// statements the test resolves with the uncached dataset scan, indexed
// is an SDB resolving through the qindex front-end.
func equivStacks(t *testing.T, n int, family string) (naive *core.Engine, indexed *core.SDB) {
	t.Helper()
	build := func() *core.SDB {
		cfg := dataset.DefaultCompanyConfig(n)
		if family == "prob" {
			// The Section 3 auditors protect values normalized to [0,1].
			cfg.MinSalary, cfg.MaxSalary = 0, 1
		}
		ds := dataset.GenerateCompany(randx.New(7), cfg)
		eng := core.NewEngine(ds)
		switch family {
		case "full":
			eng.Use(sumfull.New(n), query.Sum)
			eng.Use(maxminfull.New(n), query.Max, query.Min)
		case "prob":
			mm, err := maxminprob.New(n, maxminprob.Params{
				Game: mcpar.Game{
					Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 6, Seed: 3,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := sumprob.New(n, sumprob.Params{
				Game: mcpar.Game{
					Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 6, Seed: 4,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.Use(mm, query.Max, query.Min)
			eng.Use(sp, query.Sum)
		}
		return core.NewSDB(eng, "salary")
	}
	return build().Engine(), build()
}

func TestDecisionsIdenticalAcrossResolutionPaths(t *testing.T) {
	families := []string{"full", "prob"}
	for _, family := range families {
		family := family
		t.Run(family, func(t *testing.T) {
			const n = 40
			naive, indexed := equivStacks(t, n, family)
			steps := 300
			if family == "prob" {
				steps = 60 // Monte Carlo decisions are much slower
			}
			workload := equivWorkload(randx.New(99), steps)
			for i, sql := range workload {
				q, errN := core.ResolveSQL(naive.Dataset(), "salary", sql)
				var rn core.Response
				if errN == nil {
					rn, errN = naive.Ask(q)
				}
				ri, errI := indexed.Query(sql)
				if (errN == nil) != (errI == nil) {
					t.Fatalf("step %d %q: error divergence: naive=%v indexed=%v", i, sql, errN, errI)
				}
				if errN != nil {
					if errN.Error() != errI.Error() {
						t.Fatalf("step %d %q: error text divergence: %q vs %q", i, sql, errN, errI)
					}
					continue
				}
				if rn.Denied != ri.Denied || rn.Answer != ri.Answer {
					t.Fatalf("step %d %q: decision divergence: naive=%+v indexed=%+v", i, sql, rn, ri)
				}
			}
		})
	}
}

// TestIndexedPathInternsRepeats: the serving-path contract behind the
// allocation win — a repeated statement returns the SAME backing array.
func TestIndexedPathInternsRepeats(t *testing.T) {
	const n = 40
	ds := dataset.GenerateCompany(randx.New(7), dataset.DefaultCompanyConfig(n))
	eng := core.NewEngine(ds)
	eng.Use(sumfull.New(n), query.Sum)
	sdb := core.NewSDB(eng, "salary")
	const sql = "SELECT sum(salary) WHERE age >= 30"
	q1, err := sdb.Resolver().ResolveSQL("salary", sql)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sdb.Resolver().ResolveSQL("salary", sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(q1.Set) == 0 || &q1.Set[0] != &q2.Set[0] {
		t.Fatal("repeated statement did not return the interned canonical set")
	}
}
