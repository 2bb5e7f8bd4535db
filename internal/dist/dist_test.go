package dist

import (
	"slices"
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
		out := make([]Pair, g.N())
		meter, err := NewMSTRunner(g, model).componentMin(edgeOK, values, out, 2*g.N()+16)
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
	out := make([]Pair, g.N())
	_, err := NewMSTRunner(g, sim.VCongest).componentMin(edgeOK, values, out, 2*g.N()+16)
	if err != nil {
		t.Fatal(err)
	}
	for v := range values {
		if out[v] != values[v] {
			t.Fatalf("node %d: got %+v, want own value %+v", v, out[v], values[v])
		}
	}
}

// TestMinFloodRestrictsToClassComponents floods proposal keys on a
// path where class 0 has two components, {0,1} and {3,4,5}, and class
// 1 holds no value: each component ends with its own least key (the
// tie on −7 goes to the higher proposer, 4), node 2 ignores the class-0
// messages it overhears, and only changed values are sent.
func TestMinFloodRestrictsToClassComponents(t *testing.T) {
	g := graph.Path(6)
	lists := [][]int32{{0}, {0, 1}, {1}, {0, 1}, {0}, {0}}
	nodes := make([]MinFlood, g.N())
	procs := make([]sim.Process, g.N())
	for v, cls := range lists {
		row := []uint64{0}
		for _, c := range cls {
			row[0] |= 1 << c
		}
		nodes[v] = MinFlood{Kind: 24, Cls: cls, Row: row, Val: slices.Repeat([]Pair{NoValue}, len(cls)), Dirty: make([]bool, len(cls))}
		procs[v] = &nodes[v]
	}
	nodes[0].Val[0] = Pair{-7, -2}
	nodes[1].Val[0] = Pair{-7, -4}
	nodes[4].Val[0] = Pair{-3, -1}
	eng, err := sim.NewEngine(g, sim.VCongest, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunPhase(4*g.N() + 8); err != nil {
		t.Fatal(err)
	}
	want := [][]Pair{
		{{-7, -4}},
		{{-7, -4}, NoValue},
		{NoValue},
		{{-3, -1}, NoValue},
		{{-3, -1}},
		{{-3, -1}},
	}
	for v := range want {
		if !slices.Equal(nodes[v].Val, want[v]) {
			t.Errorf("node %d holds %v, want %v", v, nodes[v].Val, want[v])
		}
	}
	if m := eng.Meter().Messages; m != 6 {
		t.Errorf("flood sent %d messages, want 6 (three seeds, three improvements)", m)
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
