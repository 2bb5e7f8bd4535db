package decomp_test

import (
	"testing"

	"repro/internal/cds"
	"repro/internal/cdsdist"
	"repro/internal/check"
	"repro/internal/ds"
	"repro/internal/graph"
)

// TestCrossValidateCentralizedVsDistributed runs the centralized
// (Theorem 1.2) and distributed (Theorem 1.1) packers on identical
// seeded graphs and cross-checks their reports. The two implementations
// draw randomness differently (one global stream vs per-node private
// coins), so tree-level outputs differ by design; what must agree is
// everything the theorems force:
//
//   - the class count for a guess, and — on these fully-convergent
//     workloads — the valid-class count and the packing size;
//   - both partitions pass the Lemma E.1 predicate with zero failures
//     (every class a connected dominating set, loads within capacity);
//   - for guess 1 the partition is forced outright: a single class
//     holding every vertex, packing size exactly 1, on both sides.
//
// Exact per-tree outputs are pinned separately by TestFingerprintGolden.
func TestCrossValidateCentralizedVsDistributed(t *testing.T) {
	h8, err := graph.Harary(8, 48)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"Q4", graph.Hypercube(4), 4},
		{"Q6", graph.Hypercube(6), 6},
		{"K16", graph.Complete(16), 15},
		{"H8_48", h8, 8},
		{"Ham3_64", graph.RandomHamCycles(64, 3, ds.NewRand(9)), 6},
	}
	seeds := []uint64{0, 1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range seeds {
				cent, err := cds.PackWithGuess(tc.g, tc.k, cds.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				dist, err := cdsdist.PackWithGuess(tc.g, tc.k, cds.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				dp := dist.Packing
				if cent.Stats.Classes != dp.Stats.Classes {
					t.Fatalf("seed %d: class counts differ: %d vs %d", seed, cent.Stats.Classes, dp.Stats.Classes)
				}
				if cent.Stats.ValidClasses != dp.Stats.ValidClasses {
					t.Fatalf("seed %d: valid classes differ: %d vs %d", seed, cent.Stats.ValidClasses, dp.Stats.ValidClasses)
				}
				if cent.Size() != dp.Size() {
					t.Fatalf("seed %d: packing sizes differ: %v vs %v", seed, cent.Size(), dp.Size())
				}
				for side, p := range map[string]*cds.Packing{"centralized": cent, "distributed": dp} {
					w := p.Trees
					if err := check.DominatingPacking(tc.g, w, tc.k); err != nil {
						t.Fatalf("seed %d: %s packing: %v", seed, side, err)
					}
					if dom, conn := check.Partition(tc.g, check.ClassesOf(tc.g.N(), w), len(w)); dom != 0 || conn != 0 {
						t.Fatalf("seed %d: %s partition failures dom=%d conn=%d", seed, side, dom, conn)
					}
				}
			}
		})
	}
}

// TestCrossValidateForcedSingleClass pins the one case where the class
// partition is fully determined regardless of random choices: guess 1
// yields one class containing every vertex, identically on both sides.
func TestCrossValidateForcedSingleClass(t *testing.T) {
	g := graph.RandomHamCycles(48, 3, ds.NewRand(4))
	for _, seed := range []uint64{5, 11} {
		cent, err := cds.PackWithGuess(g, 1, cds.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		dist, err := cdsdist.PackWithGuess(g, 1, cds.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for side, p := range map[string]*cds.Packing{"centralized": cent, "distributed": dist.Packing} {
			if len(p.Classes) != 1 || len(p.Classes[0]) != g.N() {
				t.Fatalf("seed %d: %s class 0 has %d members, want %d", seed, side, len(p.Classes[0]), g.N())
			}
			for i, v := range p.Classes[0] {
				if int(v) != i {
					t.Fatalf("seed %d: %s class 0 member %d is %d", seed, side, i, v)
				}
			}
			if p.Size() != 1 {
				t.Fatalf("seed %d: %s size %v, want exactly 1", seed, side, p.Size())
			}
		}
	}
}
