package dist

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/sim"
)

// kruskalOrder is the centralized reference: Kruskal under weights with
// ties broken by edge id, the exact order dist.MST must realize.
func kruskalOrder(g *graph.Graph, weights []int64) []int {
	return mst.Kruskal(g, func(e int) float64 { return float64(weights[e]) })
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMSTMatchesKruskal(t *testing.T) {
	chain, err := graph.CliqueChain(4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"Q4", graph.Hypercube(4)},
		{"K8", graph.Complete(8)},
		{"cycle12", graph.Cycle(12)},
		{"chain", chain},
		{"ham32", graph.RandomHamCycles(32, 3, ds.NewRand(7))},
	}
	for _, tc := range cases {
		for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
			rng := ds.NewRand(uint64(tc.g.M()))
			for trial := 0; trial < 3; trial++ {
				weights := make([]int64, tc.g.M())
				for e := range weights {
					weights[e] = rng.Int64N(5) // few distinct weights force tie-breaking
				}
				got, meter, err := MST(tc.g, model, weights, 0)
				if err != nil {
					t.Fatalf("%s/%v: %v", tc.name, model, err)
				}
				want := kruskalOrder(tc.g, weights)
				// Kruskal returns edges in weight order; compare as sets
				// via sorted ids (dist.MST sorts its output).
				wantSorted := append([]int(nil), want...)
				for i := 1; i < len(wantSorted); i++ {
					for j := i; j > 0 && wantSorted[j] < wantSorted[j-1]; j-- {
						wantSorted[j], wantSorted[j-1] = wantSorted[j-1], wantSorted[j]
					}
				}
				if !equalInts(got, wantSorted) {
					t.Fatalf("%s/%v trial %d: MST %v != Kruskal %v (weights %v)", tc.name, model, trial, got, wantSorted, weights)
				}
				if meter.TotalRounds() <= 0 || meter.Messages <= 0 {
					t.Fatalf("%s/%v: empty meter %+v", tc.name, model, meter)
				}
			}
		}
	}
}

func TestMSTRunnerReuseIsDeterministic(t *testing.T) {
	g := graph.Hypercube(4)
	rng := ds.NewRand(3)
	weightSets := make([][]int64, 4)
	for i := range weightSets {
		weightSets[i] = make([]int64, g.M())
		for e := range weightSets[i] {
			weightSets[i][e] = rng.Int64N(9)
		}
	}
	r := NewMSTRunner(g, sim.ECongest)
	for i, w := range weightSets {
		reused, rm, err := r.MST(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, fm, err := MST(g, sim.ECongest, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(reused, fresh) {
			t.Fatalf("set %d: reused runner %v != fresh runner %v", i, reused, fresh)
		}
		if rm != fm {
			t.Fatalf("set %d: meters differ: reused %+v fresh %+v", i, rm, fm)
		}
	}
}

func TestComponentMinRestrictedFlooding(t *testing.T) {
	// Path 0-1-2-3-4-5 with the middle edge disallowed: two components.
	g := graph.Path(6)
	edgeOK := make([]bool, g.M())
	for id := range edgeOK {
		u, v := g.Endpoints(id)
		edgeOK[id] = !(u == 2 && v == 3)
	}
	values := make([]Pair, g.N())
	for v := range values {
		values[v] = Pair{A: int64(10 - v), B: int64(v)}
	}
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		out, meter, err := NewComponentMinRunner(g, model).ComponentMin(edgeOK, values)
		if err != nil {
			t.Fatal(err)
		}
		// Left component {0,1,2} minimizes at v=2 (A=8); right {3,4,5}
		// at v=5 (A=5).
		for v := 0; v <= 2; v++ {
			if out[v] != (Pair{A: 8, B: 2}) {
				t.Fatalf("%v: node %d got %+v, want {8 2}", model, v, out[v])
			}
		}
		for v := 3; v <= 5; v++ {
			if out[v] != (Pair{A: 5, B: 5}) {
				t.Fatalf("%v: node %d got %+v, want {5 5}", model, v, out[v])
			}
		}
		if meter.RawRounds == 0 {
			t.Fatalf("%v: no rounds metered", model)
		}
	}
}

func TestComponentMinInertNodes(t *testing.T) {
	// No allowed edges at all: everyone keeps their own value.
	g := graph.Complete(5)
	edgeOK := make([]bool, g.M())
	values := []Pair{{9, 0}, {3, 1}, {7, 2}, {1, 3}, {5, 4}}
	out, _, err := NewComponentMinRunner(g, sim.VCongest).ComponentMin(edgeOK, values)
	if err != nil {
		t.Fatal(err)
	}
	for v := range values {
		if out[v] != values[v] {
			t.Fatalf("node %d: got %+v, want own value %+v", v, out[v], values[v])
		}
	}
}

// TestComponentMinRunnerReuseIsDeterministic: one runner called in
// sequence on several (edge mask, values) pairs returns, for
// each call, what a fresh runner returns, meter included.
func TestComponentMinRunnerReuseIsDeterministic(t *testing.T) {
	g := graph.Hypercube(4)
	rng := ds.NewRand(5)
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		r := NewComponentMinRunner(g, model)
		for i := 0; i < 4; i++ {
			edgeOK := make([]bool, g.M())
			for e := range edgeOK {
				edgeOK[e] = rng.IntN(3) > 0
			}
			values := make([]Pair, g.N())
			for v := range values {
				values[v] = Pair{A: rng.Int64N(8), B: int64(v)}
			}
			reused, rm, err := r.ComponentMin(edgeOK, values)
			if err != nil {
				t.Fatal(err)
			}
			fresh, fm, err := NewComponentMinRunner(g, model).ComponentMin(edgeOK, values)
			if err != nil {
				t.Fatal(err)
			}
			for v := range fresh {
				if reused[v] != fresh[v] {
					t.Fatalf("%v call %d: node %d got %+v reused, %+v fresh", model, i, v, reused[v], fresh[v])
				}
			}
			if rm != fm {
				t.Fatalf("%v call %d: meters differ: reused %+v fresh %+v", model, i, rm, fm)
			}
		}
	}
}

func TestMSTDisconnectedForest(t *testing.T) {
	// Two disjoint triangles: the MSF has 4 edges, never bridging.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Graph()
	weights := make([]int64, g.M())
	chosen, _, err := MST(g, sim.VCongest, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 4 {
		t.Fatalf("spanning forest has %d edges, want 4 (chosen %v)", len(chosen), chosen)
	}
}
