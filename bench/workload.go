package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"queryaudit/internal/auditlog"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
)

// kindWeight is one entry of a workload's aggregate mix.
type kindWeight struct {
	kind   string
	weight int
}

// workload is one traffic mix against one auditserver configuration.
// Every field is fixed here; only the seed and the run length vary. A run
// is a series of identical rounds, each on a fresh server.
type workload struct {
	name string

	family string // auditor family (-auditors)
	rows   int    // table size (-n)

	analysts   int     // steady analyst population, chosen uniformly
	churn      float64 // share of requests sent by a brand-new analyst
	narrow     bool    // narrow statements (a few rows) instead of wide ones
	statements int     // WHERE clauses in the pool
	zipf       float64 // Zipf skew over the pool
	mix        []kindWeight

	round      time.Duration // length of one round's open phase
	rate       float64       // open phase: Poisson arrivals per second
	closedRate float64       // closed phase: requests per second of round length
	updates    int           // open phase: update barriers per round, evenly spaced
	slo        time.Duration
}

// workloads are the benchmark's traffic mixes. Each stresses a different
// layer; README.md and BENCHMARK.json say why each was chosen and which
// numbers it should move.
var workloads = []workload{
	{
		name:   "wide-3k",
		family: "full", rows: 3000,
		analysts: 16, churn: 0.05, statements: 64, zipf: 1.2,
		mix:   []kindWeight{{"sum", 6}, {"max", 1}, {"min", 1}},
		round: 2 * time.Second, rate: 50, closedRate: 100, slo: 100 * time.Millisecond,
	},
	{
		name:   "narrow-300",
		family: "full", rows: 300,
		analysts: 64, narrow: true, statements: 64, zipf: 1.2,
		mix:   []kindWeight{{"sum", 4}, {"max", 2}, {"min", 2}},
		round: 2 * time.Second, rate: 1000, closedRate: 3000, slo: 10 * time.Millisecond,
	},
	{
		name:   "churn-1k",
		family: "full", rows: 1000,
		analysts: 1024, statements: 64, zipf: 1.2,
		mix:   []kindWeight{{"sum", 4}, {"max", 2}, {"min", 2}},
		round: 3 * time.Second, rate: 100, closedRate: 600, updates: 2, slo: 50 * time.Millisecond,
	},
	{
		name:   "prob-300",
		family: "prob", rows: 300,
		analysts: 8, statements: 32, zipf: 1.2,
		mix:   []kindWeight{{"max", 1}, {"min", 1}},
		round: 3 * time.Second, rate: 25, closedRate: 50, slo: 100 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// stackConfig mirrors the auditserver flags the workload starts the
// server with, so the benchmark's own table copy equals the server's.
func (w workload) stackConfig() auditlog.StackConfig {
	c := auditlog.DefaultStackConfig()
	c.Family = w.family
	c.N = w.rows
	return c
}

// serverFlags are the workload's auditserver flags beyond the common ones.
func (w workload) serverFlags() []string {
	return []string{"-n", fmt.Sprint(w.rows), "-auditors", w.family}
}

// statement is one pool entry, resolved against the benchmark's table copy.
type statement struct {
	Kind string `json:"kind"`
	SQL  string `json:"sql"`
	q    query.Query
	body []byte // the /v1/query request body
}

// item is one step of a phase: a query, or (open phase only) an update
// barrier.
type item struct {
	Due     time.Duration `json:"due"` // open phase: offset from the phase start
	Analyst string        `json:"analyst,omitempty"`
	Part    int           `json:"part"` // analyst number, which fixes the closed-phase worker
	Stmt    int           `json:"stmt"`
	Update  bool          `json:"update,omitempty"`
	Index   int           `json:"index,omitempty"`
	Value   float64       `json:"value,omitempty"`
}

// plan is everything one run sends, generated before the server starts.
type plan struct {
	w      workload
	Pool   []statement `json:"pool"`
	Open   []item      `json:"open"`
	Closed []item      `json:"closed"`
}

// stream returns every item in generated order: the open phase by due
// time, then the closed phase.
func (p *plan) stream() []item {
	return append(append([]item(nil), p.Open...), p.Closed...)
}

// queries counts the query items (updates excluded).
func (p *plan) queries() int {
	n := len(p.Closed)
	for _, it := range p.Open {
		if !it.Update {
			n++
		}
	}
	return n
}

// rng returns an independent random stream for one purpose, so changing
// how one part is drawn leaves the others as they were.
func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// contentSeed fixes what is asked: the statement pool and each analyst's
// sequence of statements. Every analyst also sends the same number of
// requests under every seed. --seed draws the order in which analysts'
// requests interleave, when they arrive, and the updates. A decision
// depends only on its analyst's own history (simulatability), so every
// seed makes the same decisions and does the same auditing work, in a
// different order and at different times: the maxmin auditors' cost is
// heavy-tailed in the history, and drawing histories per seed made runs
// with different seeds incomparable.
const contentSeed = 1

// roundSeed is the seed of one round of a run: every round of a run, and
// every run, draws its own arrivals.
func roundSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// generate builds one round's inputs: the statement pool, the open-phase
// arrivals (with update barriers) and the closed-phase requests. Counts
// scale with the open phase's length.
func generate(w workload, seed int64, length time.Duration) (*plan, error) {
	ds := w.stackConfig().NewDataset()
	p := &plan{w: w}
	if err := p.buildPool(ds, rng(contentSeed, 1)); err != nil {
		return nil, err
	}
	r := rng(seed, 2)
	pickers := map[int]func() int{}
	churned := 0
	// senders returns, in seeded order, who sends each of n requests: a
	// fixed share from brand-new analysts, the rest spread evenly over
	// the steady population.
	senders := func(n int) []int {
		out := make([]int, 0, n)
		fresh := int(math.Round(w.churn * float64(n)))
		for i := 0; i < n-fresh; i++ {
			out = append(out, i%w.analysts)
		}
		for i := 0; i < fresh; i++ {
			out = append(out, w.analysts+churned)
			churned++
		}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	next := func(part int, due time.Duration) item {
		it := item{Due: due, Part: part}
		if part < w.analysts {
			it.Analyst = fmt.Sprintf("analyst-%d", part)
		} else {
			it.Analyst = fmt.Sprintf("churn-%d", part-w.analysts)
		}
		pick, ok := pickers[part]
		if !ok {
			pick = newPicker(rng(contentSeed, 100+int64(part)), w)
			pickers[part] = pick
		}
		it.Stmt = pick()
		return it
	}
	var t float64
	for _, part := range senders(int(math.Round(w.rate * length.Seconds()))) {
		t += r.ExpFloat64() / w.rate
		p.Open = append(p.Open, next(part, time.Duration(t*float64(time.Second))))
	}
	if w.updates > 0 {
		p.Open = append(p.Open, updates(w, ds, rng(seed, 3), length)...)
		sort.SliceStable(p.Open, func(i, j int) bool { return p.Open[i].Due < p.Open[j].Due })
	}
	for _, part := range senders(int(math.Round(w.closedRate * length.Seconds()))) {
		p.Closed = append(p.Closed, next(part, 0))
	}
	return p, nil
}

// newPicker draws a statement: first the aggregate kind by weight, then a
// WHERE clause by Zipf rank, so the realized mix matches the weights.
func newPicker(r *rand.Rand, w workload) func() int {
	total := 0
	for _, m := range w.mix {
		total += m.weight
	}
	z := rand.NewZipf(r, w.zipf, 1, uint64(w.statements-1))
	return func() int {
		k, draw := 0, r.Intn(total)
		for draw >= w.mix[k].weight {
			draw -= w.mix[k].weight
			k++
		}
		return k*w.statements + int(z.Uint64())
	}
}

// buildPool draws the WHERE clauses and crosses them with the mix's
// kinds. A clause that selects no rows of the table is drawn again.
func (p *plan) buildPool(ds *dataset.Dataset, r *rand.Rand) error {
	w := p.w
	wheres := make([]string, 0, w.statements)
	sets := make([]query.Set, 0, w.statements)
	for tries := 0; len(wheres) < w.statements; tries++ {
		if tries > 100*w.statements {
			return fmt.Errorf("%s: cannot draw %d non-empty statements", w.name, w.statements)
		}
		where := drawWhere(r, w.narrow)
		q, err := core.ResolveSQL(ds, "salary", "SELECT sum(salary) WHERE "+where)
		if err != nil {
			continue
		}
		wheres = append(wheres, where)
		sets = append(sets, q.Set)
	}
	for _, m := range w.mix {
		kind, err := query.ParseKind(m.kind)
		if err != nil {
			return err
		}
		for i, where := range wheres {
			sql := fmt.Sprintf("SELECT %s(salary) WHERE %s", m.kind, where)
			body, err := json.Marshal(map[string]string{"sql": sql})
			if err != nil {
				return err
			}
			p.Pool = append(p.Pool, statement{Kind: m.kind, SQL: sql, q: query.Query{Set: sets[i], Kind: kind}, body: body})
		}
	}
	return nil
}

var (
	zips  = []string{"94305", "94301", "94025", "95014", "94040"}
	depts = []string{"eng", "sales", "hr", "finance", "legal"}
)

// drawWhere draws one predicate over the company schema (ages 21-65).
// Wide shapes are cmd/loadgen's; narrow ones select a few rows.
func drawWhere(r *rand.Rand, narrow bool) string {
	if narrow {
		lo := 21 + r.Intn(43)
		hi := lo + 1 + r.Intn(2)
		if r.Intn(2) == 0 {
			return fmt.Sprintf("age BETWEEN %d AND %d AND zip = '%s'", lo, hi, zips[r.Intn(len(zips))])
		}
		return fmt.Sprintf("age BETWEEN %d AND %d AND dept = '%s'", lo, hi, depts[r.Intn(len(depts))])
	}
	switch r.Intn(4) {
	case 0:
		lo := 21 + r.Intn(35)
		return fmt.Sprintf("age BETWEEN %d AND %d", lo, lo+4+r.Intn(18))
	case 1:
		return fmt.Sprintf("dept = '%s'", depts[r.Intn(len(depts))])
	case 2:
		return fmt.Sprintf("zip = '%s' AND age >= %d", zips[r.Intn(len(zips))], 21+r.Intn(25))
	default:
		return fmt.Sprintf("age >= %d", 21+r.Intn(35))
	}
}

// updates draws the workload's updates, evenly spaced over the open phase
// whatever its length: a random record gets a new value in the table's
// salary range that no record holds (the max/min auditors assume
// distinct values).
func updates(w workload, ds *dataset.Dataset, r *rand.Rand, length time.Duration) []item {
	cfg := w.stackConfig().DatasetConfig()
	used := map[float64]bool{}
	for _, v := range ds.Values() {
		used[v] = true
	}
	var out []item
	for k := 1; k <= w.updates; k++ {
		v := cfg.MinSalary + r.Float64()*(cfg.MaxSalary-cfg.MinSalary)
		for used[v] {
			v = cfg.MinSalary + r.Float64()*(cfg.MaxSalary-cfg.MinSalary)
		}
		used[v] = true
		due := length * time.Duration(k) / time.Duration(w.updates+1)
		out = append(out, item{Due: due, Update: true, Index: r.Intn(w.rows), Value: v})
	}
	return out
}
