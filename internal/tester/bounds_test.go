package tester_test

import (
	"testing"

	"repro/internal/cds"
	"repro/internal/cdsdist"
	"repro/internal/check"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/tester"
)

// TestCheckRoundBounds holds the distributed test's rounds to Lemma
// E.1's budget at every guess of Remark 3.1's loop on Q6, Q8 and
// T16×16, each guess's own packing (cdsdist.PackWithGuess at seed 0,
// len(Trees) classes). A passing check charges one failure flood after
// domination and one after connectivity, runs at most ApproxD+8 raw
// rounds, however many classes it tests, and meters at most five times
// tester.MaxRoundsBudget.
func TestCheckRoundBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Q6", graph.Hypercube(6)},
		{"Q8", graph.Hypercube(8)},
		{"T16x16", graph.Torus(16, 16)},
	} {
		g := tc.g
		diam, budget := dist.ApproxD(g), tester.MaxRoundsBudget(g)
		c := tester.NewChecker(g)
		for guess := g.N(); guess >= 1; guess /= 2 {
			res, err := cdsdist.PackWithGuess(g, guess, cds.Options{})
			if err != nil {
				t.Fatal(err)
			}
			classes := len(res.Packing.Trees)
			got, err := c.Check(check.ClassesOf(g.N(), res.Packing.Trees), classes)
			if err != nil {
				t.Fatal(err)
			}
			m := got.Meter
			t.Logf("%s guess %d: %d classes, raw %d, metered %d = %.2f × budget", tc.name, guess, classes, m.RawRounds, m.MeteredRounds, float64(m.MeteredRounds)/float64(budget))
			if !got.OK {
				t.Errorf("%s guess %d: %d classes of valid trees failed: %+v", tc.name, guess, classes, got)
			}
			if m.ChargedRounds != 2*diam {
				t.Errorf("%s guess %d: charged %d rounds, want two failure floods of %d", tc.name, guess, m.ChargedRounds, diam)
			}
			if m.RawRounds > diam+8 {
				t.Errorf("%s guess %d: %d raw rounds at %d classes, above ApproxD+8 = %d", tc.name, guess, m.RawRounds, classes, diam+8)
			}
			if m.MeteredRounds > 5*budget {
				t.Errorf("%s guess %d: %d metered rounds at %d classes, above 5 × MaxRoundsBudget = %d", tc.name, guess, m.MeteredRounds, classes, 5*budget)
			}
		}
	}
}
