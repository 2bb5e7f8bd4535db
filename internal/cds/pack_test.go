package cds

import (
	"math"
	"testing"

	"repro/internal/ds"
	"repro/internal/flow"
	"repro/internal/graph"
)

// buildGraph constructs test graphs directly through graph.Builder, the
// same CSR path every generator uses, so these tests exercise no other
// construction route.
func buildGraph(n int, edges [][2]int) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Graph()
}

func TestPackWithGuessValidatesInputs(t *testing.T) {
	g := graph.Complete(4)
	if _, err := PackWithGuess(g, 0, Options{Seed: 1}); err == nil {
		t.Fatal("guess 0 accepted")
	}
	if _, err := PackWithGuess(graph.NewBuilder(0).Graph(), 1, Options{Seed: 1}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestPackSingleClassIsWholeGraph(t *testing.T) {
	// Guess 1 => one class containing every vertex; the packing is a
	// single spanning (hence dominating) tree with weight 1.
	g := graph.Cycle(10)
	p, err := PackWithGuess(g, 1, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Classes != 1 || p.Stats.ValidClasses != 1 {
		t.Fatalf("classes=%d valid=%d, want 1/1", p.Stats.Classes, p.Stats.ValidClasses)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s := p.Size(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("Size = %f, want 1", s)
	}
}

func TestPackingOnKnownConnectivityFamilies(t *testing.T) {
	rng := ds.NewRand(2024)
	h8, err := graph.Harary(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		g    *graph.Graph
		k    int // true vertex connectivity (or strong lower bound)
	}{
		{"Hypercube6", graph.Hypercube(6), 6},
		{"Harary8_64", h8, 8},
		{"HamCycles4_96", graph.RandomHamCycles(96, 4, rng), 6},
		{"Complete24", graph.Complete(24), 23},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Pack(tc.g, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(tc.g); err != nil {
				t.Fatal(err)
			}
			n := float64(tc.g.N())
			size := p.Size()
			if size <= 0 {
				t.Fatal("empty packing")
			}
			// Upper bound: packing size can never exceed k (every vertex
			// cut meets every dominating tree).
			if size > float64(tc.k)+1e-9 {
				t.Fatalf("packing size %.3f exceeds κ=%d", size, tc.k)
			}
			// Lower bound: Ω(k/log n) with a lenient constant.
			floor := float64(tc.k) / (8 * math.Log2(n+2))
			if size < floor {
				t.Fatalf("packing size %.3f below k/(8 log n) = %.3f", size, floor)
			}
			// Per-node membership is O(log n).
			if mt := p.MaxTreeCount(tc.g.N()); float64(mt) > 6*math.Log2(n+2) {
				t.Fatalf("a node is in %d trees, above 6 log n", mt)
			}
		})
	}
}

func TestFastMergerConvergence(t *testing.T) {
	// The Fast Merger Lemma predicts M_ell decays geometrically; verify
	// the trace is non-increasing and reaches 0 on a well-connected graph.
	g := graph.Hypercube(6)
	p, err := PackWithGuess(g, 6, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	trace := p.Stats.ExcessComponents
	if len(trace) == 0 {
		t.Fatal("no convergence trace")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1] {
			t.Fatalf("M_ell increased at layer %d: %v", i, trace)
		}
	}
	if last := trace[len(trace)-1]; last != 0 {
		t.Fatalf("excess components did not reach 0: %v", trace)
	}
	if p.Stats.ValidClasses != p.Stats.Classes {
		t.Fatalf("only %d/%d classes valid on Q6", p.Stats.ValidClasses, p.Stats.Classes)
	}
}

func TestPackingSizeWithinLogFactorOfKappa(t *testing.T) {
	// Corollary 1.7: packing size approximates κ within O(log n).
	rng := ds.NewRand(5)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"Q4", graph.Hypercube(4)},
		{"Gnp64", graph.Gnp(64, 0.25, rng)},
		{"Ham3_48", graph.RandomHamCycles(48, 3, rng)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			if !graph.IsConnected(tc.g) {
				t.Skip("random graph disconnected")
			}
			kappa := flow.VertexConnectivity(tc.g)
			size, p, err := ApproxVertexConnectivity(tc.g, Options{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(tc.g); err != nil {
				t.Fatal(err)
			}
			if size > float64(kappa)+1e-9 {
				t.Fatalf("estimate %.3f exceeds κ=%d", size, kappa)
			}
			ratio := float64(kappa) / size
			logn := math.Log2(float64(tc.g.N()) + 2)
			if ratio > 10*logn {
				t.Fatalf("approximation ratio %.1f above 10 log n = %.1f", ratio, 10*logn)
			}
		})
	}
}

func TestTreeDiameterBound(t *testing.T) {
	// Theorem 1.1: tree diameters are O~(n/k). With n=64, k=6 the bound
	// n/k * polylog is loose; assert heights stay below n/2 as a sanity
	// shape check and report the realized max.
	g := graph.Hypercube(6)
	p, err := PackWithGuess(g, 6, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	h := p.MaxTreeHeight()
	if h <= 0 || h > g.N()/2 {
		t.Fatalf("max tree height %d outside (0, n/2]", h)
	}
}

func TestExtractDisjoint(t *testing.T) {
	g := graph.Complete(32)
	p, err := Pack(g, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	trees := ExtractDisjoint(g, p)
	if len(trees) == 0 {
		t.Fatal("no disjoint trees extracted from K32")
	}
	seen := ds.NewBitset(g.N())
	for ti, tree := range trees {
		if !tree.IsDominatingIn(g) {
			t.Fatalf("tree %d does not dominate", ti)
		}
		for _, v := range tree.Vertices() {
			if seen.Has(int(v)) {
				t.Fatalf("vertex %d appears in two disjoint trees", v)
			}
			seen.Set(int(v))
		}
	}
}

func TestPackDeterministicForSeed(t *testing.T) {
	g := graph.Hypercube(5)
	p1, err := Pack(g, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Pack(g, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Size() != p2.Size() || p1.Stats.ValidClasses != p2.Stats.ValidClasses {
		t.Fatalf("same seed diverged: size %f/%f valid %d/%d",
			p1.Size(), p2.Size(), p1.Stats.ValidClasses, p2.Stats.ValidClasses)
	}
}

func TestPackDisconnectedGraphFails(t *testing.T) {
	g := buildGraph(6, [][2]int{{0, 1}, {2, 3}, {4, 5}})
	if _, err := Pack(g, Options{Seed: 1}); err == nil {
		t.Fatal("disconnected graph produced a packing")
	}
}

func TestValidateCatchesOverload(t *testing.T) {
	g := graph.Complete(4)
	tr := graph.TreeFromBFS(g, 0)
	for _, tc := range []struct {
		name  string
		trees []graph.WeightedTree
	}{
		{"vertex load 1.6", []graph.WeightedTree{{Tree: tr, Weight: 0.8}, {Tree: tr, Weight: 0.8}}},
		{"weight over 1", []graph.WeightedTree{{Tree: tr, Weight: 1.5}}},
		{"empty packing", nil},
	} {
		p := &Packing{Trees: tc.trees}
		if err := p.Validate(g); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
