package core

import (
	"flag"
	"strings"
	"testing"
)

// TestRegisterFlags: the ten stack flags parsed with no arguments leave
// exactly DefaultStackConfig, and each sets its own field.
func TestRegisterFlags(t *testing.T) {
	withProb := DefaultStackConfig()
	withProb.Family, withProb.T, withProb.ProbSeed = "prob", 5, 9
	cases := []struct {
		args string
		want StackConfig
	}{
		{"", DefaultStackConfig()},
		{"-auditors prob -prob-t 5 -prob-seed 9", withProb},
		{
			"-auditors prob -n 7 -seed 3 -mc-workers 2 -mc-adaptive-alpha 0.01 -prob-lambda 0.5 -prob-gamma 6 -prob-delta 0.1 -prob-t 4 -prob-seed 8",
			StackConfig{
				Family: "prob", N: 7, Seed: 3, MCWorkers: 2, AdaptiveAlpha: 0.01,
				Lambda: 0.5, Gamma: 6, Delta: 0.1, T: 4, ProbSeed: 8,
			},
		},
	}
	for _, tc := range cases {
		c := DefaultStackConfig()
		fs := flag.NewFlagSet("stack", flag.ContinueOnError)
		c.RegisterFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatal(err)
		}
		if c != tc.want {
			t.Errorf("%q: %+v, want %+v", tc.args, c, tc.want)
		}
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n != 10 {
			t.Fatalf("RegisterFlags declared %d flags, want 10", n)
		}
	}
}
