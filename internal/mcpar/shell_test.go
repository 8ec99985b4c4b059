package mcpar_test

import (
	"strings"
	"testing"

	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/maxprob"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/mcpar"
)

// TestAuditorsRefuseBadGames: every probabilistic auditor refuses each
// game value outside Section 3's ranges, with an error that names the
// auditor's package and the offending parameter; maxprob also refuses a
// data range with β below α.
func TestAuditorsRefuseBadGames(t *testing.T) {
	ok := mcpar.Game{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12}
	bad := []struct {
		name string
		edit func(*mcpar.Game)
	}{
		{"lambda", func(g *mcpar.Game) { g.Lambda = 0 }},
		{"lambda", func(g *mcpar.Game) { g.Lambda = 1 }},
		{"lambda", func(g *mcpar.Game) { g.Lambda = -0.1 }},
		{"gamma", func(g *mcpar.Game) { g.Gamma = 0 }},
		{"delta", func(g *mcpar.Game) { g.Delta = 0 }},
		{"delta", func(g *mcpar.Game) { g.Delta = 1 }},
		{"T", func(g *mcpar.Game) { g.T = 0 }},
	}
	news := []struct {
		pkg string
		new func(mcpar.Game) error
	}{
		{"maxprob", func(g mcpar.Game) error { _, err := maxprob.New(5, maxprob.Params{Game: g}); return err }},
		{"maxminprob", func(g mcpar.Game) error { _, err := maxminprob.New(5, maxminprob.Params{Game: g}); return err }},
		{"sumprob", func(g mcpar.Game) error { _, err := sumprob.New(5, sumprob.Params{Game: g}); return err }},
	}
	for _, a := range news {
		if err := a.new(ok); err != nil {
			t.Fatalf("%s refused the valid game %+v: %v", a.pkg, ok, err)
		}
		for _, b := range bad {
			g := ok
			b.edit(&g)
			err := a.new(g)
			if err == nil {
				t.Errorf("%s accepted %+v", a.pkg, g)
				continue
			}
			if msg := err.Error(); !strings.HasPrefix(msg, a.pkg+": "+b.name+" ") {
				t.Errorf("%s refused %+v with %q, want it to name %s and %s", a.pkg, g, msg, a.pkg, b.name)
			}
		}
	}
	_, err := maxprob.New(5, maxprob.Params{Game: ok, Alpha: 2, Beta: 1})
	if err == nil || !strings.HasPrefix(err.Error(), "maxprob: beta ") {
		t.Errorf("maxprob with beta below alpha: err = %v, want a maxprob: beta error", err)
	}
}
