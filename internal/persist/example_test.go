package persist_test

import (
	"bytes"
	"fmt"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/persist"
	"queryaudit/internal/query"
	"queryaudit/internal/session"
)

// Example persists a max auditor's session journal and restores it into
// a fresh deployment by replay: the restored session remembers exactly
// what was answered and keeps denying the same probes.
func Example() {
	newManager := func() *session.Manager {
		sp := core.NewEngineSpec(dataset.FromValues([]float64{3, 9, 4}))
		sp.Register(func() (audit.Auditor, error) { return maxfull.New(3), nil }, query.Max)
		m, err := session.NewManager(sp, session.Config{})
		if err != nil {
			panic(err)
		}
		return m
	}
	orig := newManager()
	defer orig.Close()
	if _, err := orig.Ask(session.DefaultAnalyst, query.New(query.Max, 0, 1, 2)); err != nil {
		panic(err)
	}

	var buf bytes.Buffer
	if err := persist.SaveSessionState(&buf, orig.LogSnapshots(), 0); err != nil {
		panic(err)
	}
	journals, err := persist.LoadJournals(buf.Bytes())
	if err != nil {
		panic(err)
	}
	restored := newManager()
	defer restored.Close()
	if err := restored.Install(journals); err != nil {
		panic(err)
	}

	probe := query.New(query.Max, 0, 1) // would localize the witness
	r1, _ := orig.Ask(session.DefaultAnalyst, probe)
	r2, _ := restored.Ask(session.DefaultAnalyst, probe)
	fmt.Println(len(journals), r1.Denied, r2.Denied)
	// Output:
	// 1 true true
}
