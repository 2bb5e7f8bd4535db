package decomp_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cds"
	"repro/internal/cdsdist"
	"repro/internal/graph"
	"repro/internal/stp"
	"repro/internal/stpdist"
)

// workloadFingerprint runs the two distributed packings the issue pins
// (dominating trees on Q5, spanning trees on K16) and folds every
// observable output — packing sizes, tree contents, and every meter
// component — into one string, so any divergence fails loudly.
func workloadFingerprint(t *testing.T) string {
	t.Helper()
	h := fnv.New64a()

	q5 := graph.Hypercube(5)
	for seed := uint64(0); seed < 3; seed++ {
		res, err := cdsdist.PackWithGuess(q5, 20, cds.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "cds seed=%d size=%.9f meter=%+v;", seed, res.Packing.Size(), res.Meter)
		for i, tr := range res.Packing.Trees {
			fmt.Fprintf(h, "%d:%v;", res.Packing.TreeClass[i], tr.Tree.Vertices())
		}
	}

	k16 := graph.Complete(16)
	res, err := stpdist.Pack(k16, stp.Options{Seed: 7, KnownLambda: 15, Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "stp size=%.9f meter=%+v trees=%d;", res.Packing.Size(), res.Meter, len(res.Packing.Trees))
	for _, tr := range res.Packing.Trees {
		fmt.Fprintf(h, "%.12f:%v;", tr.Weight, tr.Tree.Vertices())
	}

	return fmt.Sprintf("%x", h.Sum64())
}

// TestSeedReproducibility guards the run-to-run contract (identical
// seeds, identical results in one process) that the spanning-tree
// packing's map-ordered tree collection used to violate.
func TestSeedReproducibility(t *testing.T) {
	a := workloadFingerprint(t)
	b := workloadFingerprint(t)
	if a != b {
		t.Fatalf("same seeds, different results: %s vs %s", a, b)
	}
}
