package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/qindex"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/session"
)

// benchRows is the acceptance-scale table: resolution cost differences
// between the naive scan and the index only matter at real sizes.
const benchRows = 10_000

func benchDataset() *dataset.Dataset {
	return dataset.GenerateCompany(randx.New(42), dataset.DefaultCompanyConfig(benchRows))
}

// benchStatements is a hot mix over the company schema: range cuts,
// posting-list lookups, and a conjunction, repeated verbatim the way a
// dashboard or retry loop repeats them.
var benchStatements = []string{
	"SELECT sum(salary) WHERE age BETWEEN 30 AND 45",
	"SELECT sum(salary) WHERE dept = 'eng'",
	"SELECT sum(salary) WHERE zip = '94305' AND age >= 40",
	"SELECT sum(salary) WHERE age <= 35",
}

// BenchmarkResolve measures statement → query.Query resolution alone
// (parse + predicate → row set), the layer the index replaces.
//
//	naive    uncached core.ResolveSQL over the dataset (full-table scan)
//	indexed  core.SQLResolver over a qindex resolver (memoized
//	         statements, interned sets) — the serving path
func BenchmarkResolve(b *testing.B) {
	ds := benchDataset()
	indexed := core.NewSQLResolver(qindex.NewResolver(ds))
	arms := []struct {
		name    string
		resolve func(sql string) (query.Query, error)
	}{
		{"naive", func(sql string) (query.Query, error) { return core.ResolveSQL(ds, "salary", sql) }},
		{"indexed", func(sql string) (query.Query, error) { return indexed.ResolveSQL("salary", sql) }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := arm.resolve(benchStatements[i%len(benchStatements)])
				if err != nil || len(q.Set) == 0 {
					b.Fatalf("resolve: %v (|set|=%d)", err, len(q.Set))
				}
			}
		})
	}
}

// benchServer builds a sessionful server over the 10k-row table with the
// exact full-disclosure auditors.
func benchServer(b *testing.B) *Server {
	b.Helper()
	spec := core.NewEngineSpec(benchDataset())
	if err := (core.StackConfig{Family: "full", N: benchRows}).RegisterAuditors(spec); err != nil {
		b.Fatal(err)
	}
	mgr, err := session.NewManager(spec, session.Config{NoJanitor: true})
	if err != nil {
		b.Fatal(err)
	}
	return NewWithSessions(mgr, "salary")
}

// BenchmarkServeAsk measures the whole HTTP Ask path — routing, body
// decode, resolution, engine decision, response encode — for the hot
// repeated-statement shape. ServeHTTP is driven directly (no sockets) so
// the numbers isolate server work from kernel networking.
func BenchmarkServeAsk(b *testing.B) {
	b.Run("indexed", func(b *testing.B) {
		srv := benchServer(b)
		defer srv.Sessions().Close()
		bodies := make([]string, len(benchStatements))
		for i, sql := range benchStatements {
			bodies[i] = fmt.Sprintf("{\"sql\": %q}", sql)
		}
		// Warm each statement once so the loop measures steady state
		// (first-touch index build / auditor state setup excluded).
		for _, body := range bodies {
			serveAskOnce(b, srv, body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveAskOnce(b, srv, bodies[i%len(bodies)])
		}
	})
}

func serveAskOnce(b *testing.B, srv *Server, body string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServeAskQuerySet measures the explicit-queryset path (client-
// resolved indices), where interning is the only index-layer work.
func BenchmarkServeAskQuerySet(b *testing.B) {
	srv := benchServer(b)
	defer srv.Sessions().Close()
	idx := make([]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		idx = append(idx, fmt.Sprint(i*3))
	}
	body := `{"kind": "sum", "indices": [` + strings.Join(idx, ",") + `]}`
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/queryset", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
