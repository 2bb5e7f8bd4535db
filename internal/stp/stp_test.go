package stp

import (
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/ds"
	"repro/internal/flow"
	"repro/internal/graph"
)

func TestPackValidation(t *testing.T) {
	if _, err := Pack(graph.NewBuilder(1).Graph(), Options{}); err == nil {
		t.Fatal("single vertex accepted")
	}
	if _, err := Pack(graph.FromEdgeList(4, [][2]int{{0, 1}}), Options{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestPackTreeIsTrivialForLambda1(t *testing.T) {
	g := graph.Path(6) // λ=1, ⌈(λ-1)/2⌉ -> floor 1 tree by our ceilHalf(0)=0->1 clamp
	p, err := Pack(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s := p.Size(); s < 0.8 || s > 1+1e-9 {
		t.Fatalf("size = %f, want about 1", s)
	}
}

func TestPackSizeReachesTutteBound(t *testing.T) {
	tests := []struct {
		name   string
		g      *graph.Graph
		lambda int
	}{
		{"K8", graph.Complete(8), 7},
		{"Q4", graph.Hypercube(4), 4},
		{"Torus5x5", graph.Torus(5, 5), 4},
		{"C12", graph.Cycle(12), 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Pack(tc.g, Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(tc.g); err != nil {
				t.Fatal(err)
			}
			want := float64((tc.lambda-1+1)/2) * (1 - 0.35) // ⌈(λ-1)/2⌉(1-ε'), lenient
			bound := math.Ceil(float64(tc.lambda-1) / 2)
			if bound < 1 {
				bound = 1
			}
			if got := p.Size(); got < want || got > bound+1e-6 {
				t.Fatalf("size %.3f outside [%.3f, %.3f] for λ=%d", got, want, bound, tc.lambda)
			}
			if p.Stats.Lambda != tc.lambda {
				t.Fatalf("Stats.Lambda = %d, want %d", p.Stats.Lambda, tc.lambda)
			}
		})
	}
}

func TestPackMaxLoadBoundedByLemmaF1(t *testing.T) {
	g := graph.Hypercube(5)
	p, err := Pack(g, Options{Seed: 5, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.MaxLoad > 1+6*0.1+0.05 {
		t.Fatalf("pre-rescale max load %.3f exceeds 1+6ε", p.Stats.MaxLoad)
	}
	if l, _ := check.EdgeCongestion(g, p.Trees); l > 1+1e-9 {
		t.Fatalf("post-rescale edge load %.6f > 1", l)
	}
}

func TestValidateRejects(t *testing.T) {
	g := graph.Complete(4)
	span := graph.TreeFromBFS(g, 0)
	partial, err := graph.NewTree(4, 0, map[int]int{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		trees []graph.WeightedTree
	}{
		{"edge load 1.6", []graph.WeightedTree{{Tree: span, Weight: 0.8}, {Tree: span, Weight: 0.8}}},
		{"not spanning", []graph.WeightedTree{{Tree: partial, Weight: 1}}},
		{"zero weight", []graph.WeightedTree{{Tree: span, Weight: 0}}},
		{"empty packing", nil},
	} {
		p := &Packing{Trees: tc.trees}
		if err := p.Validate(g); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestPackKnownLambdaSkipsEstimation(t *testing.T) {
	g := graph.Hypercube(4)
	p, err := Pack(g, Options{Seed: 7, KnownLambda: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Lambda != 4 {
		t.Fatalf("Stats.Lambda = %d, want 4", p.Stats.Lambda)
	}
	if p.Stats.Subgraphs != 1 || p.Stats.SubgraphsPacked != 1 {
		t.Fatalf("unsampled run reports Subgraphs=%d SubgraphsPacked=%d, want 1/1",
			p.Stats.Subgraphs, p.Stats.SubgraphsPacked)
	}
}

func TestPackSamplingPathForLargeLambda(t *testing.T) {
	// K48 has λ=47; with a low sampling threshold the η-subgraph path
	// must engage and still produce a valid packing of size Ω(λ).
	g := graph.Complete(48)
	p, err := Pack(g, Options{Seed: 9, Epsilon: 0.3, SampleThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Subgraphs < 2 {
		t.Fatalf("sampling did not engage: η=%d", p.Stats.Subgraphs)
	}
	if p.Stats.SubgraphsPacked < 1 || p.Stats.SubgraphsPacked > p.Stats.Subgraphs {
		t.Fatalf("SubgraphsPacked=%d outside [1, η=%d]", p.Stats.SubgraphsPacked, p.Stats.Subgraphs)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if got := p.Size(); got < 47.0/8 {
		t.Fatalf("sampled packing size %.2f below λ/8", got)
	}
}

func TestMaxEdgeTreeCountPolylog(t *testing.T) {
	g := graph.Hypercube(5)
	p, err := Pack(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	logn := math.Log2(float64(g.N()) + 2)
	c := p.MaxEdgeTreeCount(g)
	// Theorem 1.3's O(log^3 n) bound, with a laptop-scale constant; the
	// count is also trivially bounded by the iteration count.
	if float64(c) > 8*logn*logn*logn {
		t.Fatalf("edge tree count %d above 8 log^3 n", c)
	}
	if c > p.Stats.Iterations+1 {
		t.Fatalf("edge tree count %d exceeds distinct-tree budget %d", c, p.Stats.Iterations+1)
	}
}

func TestIntegralPack(t *testing.T) {
	g := graph.Complete(64) // λ=63
	trees, err := IntegralPack(g, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) < 2 {
		t.Fatalf("only %d integral trees from K64", len(trees))
	}
	// Edge-disjointness.
	used := map[[2]int]bool{}
	for ti, tree := range trees {
		if !tree.IsSpanning(g) {
			t.Fatalf("tree %d not spanning", ti)
		}
		if err := tree.ValidateIn(g); err != nil {
			t.Fatal(err)
		}
		tree.ForEachEdge(func(child, parent int) {
			key := [2]int{min(child, parent), max(child, parent)}
			if used[key] {
				t.Fatalf("edge %v reused across integral trees", key)
			}
			used[key] = true
		})
	}
}

func TestIntegralPackLowLambda(t *testing.T) {
	g := graph.Cycle(10) // λ=2: η=1, one tree
	trees, err := IntegralPack(g, Options{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
}

// TestPackAgainstExactLambdaOnRandomGraphs cross-checks the packing size
// against the exact λ computed by two independent algorithms.
func TestPackAgainstExactLambdaOnRandomGraphs(t *testing.T) {
	rng := ds.NewRand(17)
	for trial := 0; trial < 4; trial++ {
		g := graph.RandomHamCycles(24, 3, rng) // λ≈6
		lambda := flow.EdgeConnectivity(g)
		if lambda != flow.StoerWagner(g) {
			t.Fatal("flow and Stoer-Wagner disagree")
		}
		p, err := Pack(g, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatal(err)
		}
		bound := float64((lambda + 1) / 2)
		if got := p.Size(); got > bound+1e-6 {
			t.Fatalf("trial %d: size %.3f exceeds ⌈(λ-1)/2⌉=%v", trial, got, bound)
		}
		if got := p.Size(); got < bound*0.6 {
			t.Fatalf("trial %d: size %.3f below 0.6×bound %.3f", trial, got, bound)
		}
	}
}

// TestSampleSubgraphs: up to the cutoff the one sample is g itself with
// the given λ; above it (K40 at threshold 0.5, ε 0.3: cutoff 15.5, so
// η = 2) the samples are connected, spanning, pairwise edge-disjoint
// subgraphs of g that carry their exact edge connectivity.
func TestSampleSubgraphs(t *testing.T) {
	q5 := graph.Hypercube(5)
	eta, samples := SampleSubgraphs(q5, 5, Options{})
	if eta != 1 || len(samples) != 1 || samples[0].Graph != q5 || samples[0].Lambda != 5 {
		t.Fatalf("below the cutoff: eta=%d samples=%+v, want 1 and Q5 itself with λ=5", eta, samples)
	}
	k40 := graph.Complete(40)
	eta, samples = SampleSubgraphs(k40, 39, Options{Seed: 1, Epsilon: 0.3, SampleThreshold: 0.5})
	if eta != 2 || len(samples) != 2 {
		t.Fatalf("above the cutoff: eta=%d with %d samples, want 2 and 2", eta, len(samples))
	}
	owner := make([]int, k40.M())
	for i, s := range samples {
		if s.Graph.N() != k40.N() || !graph.IsConnected(s.Graph) {
			t.Fatalf("sample %d is not a connected spanning subgraph", i)
		}
		if want := flow.EdgeConnectivity(s.Graph); s.Lambda != want {
			t.Fatalf("sample %d carries λ=%d, want %d", i, s.Lambda, want)
		}
		for id := 0; id < s.Graph.M(); id++ {
			u, v := s.Graph.Endpoints(id)
			e, ok := k40.EdgeID(u, v)
			if !ok || owner[e] != 0 {
				t.Fatalf("sample %d edge %d-%d is not a fresh edge of K40", i, u, v)
			}
			owner[e] = i + 1
		}
	}
}
