// Webservice: the end-to-end deployment — an audited statistical
// database served over HTTP and a statistician's client session against
// it: schema discovery, aggregate queries, a denial, the DBA's
// per-record exposure report, and an update that restores query room.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/server"
	"queryaudit/internal/session"
)

func main() {
	// Server side: a hospital table guarded by the full-disclosure
	// auditors, exactly as cmd/auditserver wires it.
	n := 80
	ds := dataset.GenerateHospital(randx.New(3), dataset.DefaultHospitalConfig(n))
	spec := core.NewEngineSpec(ds)
	spec.Register(func() (audit.Auditor, error) { return sumfull.New(n), nil }, query.Sum)
	spec.Register(func() (audit.Auditor, error) { return maxminfull.New(n), nil }, query.Max, query.Min)
	mgr, err := session.NewManager(spec, session.Config{})
	if err != nil {
		panic(err)
	}
	defer mgr.Close()
	srv := httptest.NewServer(server.NewWithSessions(mgr, "severity"))
	defer srv.Close()
	fmt.Printf("service up at %s (in-process for the example)\n\n", srv.URL)

	get := func(path string) map[string]any {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	post := func(path string, body any) map[string]any {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	ask := func(sql string) {
		out := post("/v1/query", server.QueryRequest{SQL: sql})
		if out["denied"] == true {
			fmt.Printf("%-58s DENIED\n", sql)
		} else if e, ok := out["error"]; ok {
			fmt.Printf("%-58s error: %v\n", sql, e)
		} else {
			fmt.Printf("%-58s = %.4f\n", sql, out["answer"])
		}
	}

	fmt.Println("schema:", get("/v1/schema"))
	fmt.Println()

	ask("SELECT avg(severity) WHERE age BETWEEN 0 AND 99")
	ask("SELECT sum(severity) WHERE county = 'alameda'")
	ask("SELECT max(severity) WHERE county = 'alameda'")
	ask("SELECT min(severity) WHERE county = 'alameda'")
	for _, c := range []string{"santa-clara", "san-mateo", "marin"} {
		ask(fmt.Sprintf("SELECT sum(severity) WHERE county = '%s'", c))
	}
	// The avg above committed the whole-table sum; a client asking for
	// everyone except patient 0 (via the explicit-set endpoint) would
	// expose that patient — denied.
	allButZero := make([]int, n-1)
	for i := range allButZero {
		allButZero[i] = i + 1
	}
	out := post("/v1/queryset", server.QuerySetRequest{Kind: "sum", Indices: allButZero})
	fmt.Printf("%-58s denied=%v\n", "sum(severity) of all patients except #0", out["denied"])

	fmt.Println("\nstats:", get("/v1/stats"))

	// The DBA inspects what the answered history exposed.
	know := get("/v1/knowledge")
	auditors := know["auditors"].(map[string]any)
	for name, raw := range auditors {
		entries := raw.([]any)
		constrained := 0
		for _, e := range entries {
			m := e.(map[string]any)
			if m["upper"].(float64) < 1e308 || m["lower"].(float64) > -1e308 {
				constrained++
			}
		}
		fmt.Printf("knowledge[%s]: %d/%d records carry derived bounds\n", name, constrained, len(entries))
	}

	// An update retires stale constraints and restores query room.
	fmt.Println("\npatient 5's severity is re-assessed …")
	post("/v1/update", server.UpdateRequest{Index: 5, Value: 0.31415926})
	fmt.Println("stats after update:", get("/v1/stats"))
}
