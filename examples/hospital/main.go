// Hospital: auditing bags of max and min queries (Section 4) over a
// patient-severity database, plus the partial-disclosure (probabilistic)
// max auditor of Section 3.1 side by side. Severity scores are in [0,1),
// the exact model of the paper's probabilistic analysis.
package main

import (
	"fmt"

	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxprob"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

func main() {
	rng := randx.New(7)
	ds := dataset.GenerateHospital(rng, dataset.DefaultHospitalConfig(120))

	fmt.Printf("hospital database: %s\n", ds.Describe())

	// --- Full disclosure: the Section 4 max∧min auditor. ---
	eng := core.NewEngine(ds)
	mm := maxminfull.New(ds.N())
	eng.Use(mm, query.Max, query.Min)
	sdb := core.NewSDB(eng, "severity")

	run := func(s *core.SDB, sql string) {
		resp, err := s.Query(sql)
		switch {
		case err != nil:
			fmt.Printf("  %-58s error: %v\n", sql, err)
		case resp.Denied:
			fmt.Printf("  %-58s DENIED\n", sql)
		default:
			fmt.Printf("  %-58s = %.4f\n", sql, resp.Answer)
		}
	}

	fmt.Println("\nfull-disclosure auditing of a max/min bag:")
	run(sdb, "SELECT max(severity) WHERE county = 'santa-clara'")
	run(sdb, "SELECT min(severity) WHERE county = 'santa-clara'")
	run(sdb, "SELECT max(severity) WHERE age BETWEEN 40 AND 70")
	run(sdb, "SELECT min(severity) WHERE age BETWEEN 40 AND 70")
	// A query isolating a single patient is always refused.
	resp, err := eng.Ask(query.New(query.Max, 17))
	fmt.Printf("  %-58s denied=%v err=%v\n", "max(severity) of patient #17 alone", resp.Denied, err)

	// --- Partial disclosure: the Section 3.1 probabilistic auditor. ---
	ds2 := dataset.GenerateHospital(randx.New(7), dataset.DefaultHospitalConfig(120))
	eng2 := core.NewEngine(ds2)
	probAud, err := maxprob.New(ds2.N(), maxprob.Params{
		Game: mcpar.Game{
			Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 50, Seed: 11,
		},
		Samples: 64,
	})
	if err != nil {
		panic(err)
	}
	eng2.Use(probAud, query.Max)
	sdb2 := core.NewSDB(eng2, "severity")

	fmt.Println("\npartial-disclosure auditing (λ=0.45, γ=4, δ=0.2):")
	fmt.Println("  broad max queries barely move any posterior — answered;")
	fmt.Println("  narrow ones concentrate it — denied.")
	run(sdb2, "SELECT max(severity) WHERE age BETWEEN 0 AND 99")
	run(sdb2, "SELECT max(severity) WHERE age BETWEEN 20 AND 90")
	run(sdb2, "SELECT max(severity) WHERE age BETWEEN 40 AND 44")

	fmt.Printf("\ncounters: full answered=%d denied=%d | partial answered=%d denied=%d\n",
		eng.Answered(), eng.Denied(), eng2.Answered(), eng2.Denied())
}
