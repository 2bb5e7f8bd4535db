package flow

import (
	"fmt"
	"testing"

	"repro/internal/ds"
	"repro/internal/graph"
)

type namedGraph struct {
	name string
	g    *graph.Graph
}

// coldPackFamilies are the 13 graph families perfbench's cold-pack
// workload packs, unrelabelled.
func coldPackFamilies(tb testing.TB) []namedGraph {
	tb.Helper()
	out := []namedGraph{
		{"Q5", graph.Hypercube(5)}, {"Q6", graph.Hypercube(6)},
		{"Q7", graph.Hypercube(7)}, {"Q8", graph.Hypercube(8)},
		{"T8x8", graph.Torus(8, 8)}, {"T12x12", graph.Torus(12, 12)},
		{"T16x16", graph.Torus(16, 16)},
	}
	for _, h := range [][2]int{{6, 64}, {8, 112}, {10, 96}, {12, 160}} {
		g, err := graph.Harary(h[0], h[1])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, namedGraph{fmt.Sprintf("H(%d,%d)", h[0], h[1]), g})
	}
	for _, c := range [][3]int{{8, 8, 4}, {6, 12, 6}} {
		g, err := graph.CliqueChain(c[0], c[1], c[2])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, namedGraph{fmt.Sprintf("CC(%d,%d,%d)", c[0], c[1], c[2]), g})
	}
	return out
}

// twoK5 is two disjoint K5s: δ = 4 but λ = 0.
func twoK5() *graph.Graph {
	b := graph.NewBuilder(10)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+5, v+5)
		}
	}
	return b.Graph()
}

// TestEdgeConnectivityMatchesStoerWagner checks the dominating-set
// EdgeConnectivity against the independent Stoer–Wagner oracle on a
// seeded sweep: G(n,p) for n <= 32 (disconnected draws included), clique
// chains whose bridges are narrower than their cliques, two disjoint
// K5s, and the cold-pack families. The first three make λ < δ, the case
// Matula's lemma is for, common.
func TestEdgeConnectivityMatchesStoerWagner(t *testing.T) {
	graphs, belowDelta, disconnected := 0, 0, 0
	check := func(name string, g *graph.Graph) {
		t.Helper()
		got, want := EdgeConnectivity(g), StoerWagner(g)
		if got != want {
			t.Fatalf("%s: EdgeConnectivity = %d, StoerWagner = %d", name, got, want)
		}
		graphs++
		if want < g.MinDegree() {
			belowDelta++
		}
		if g.N() > 1 && !graph.IsConnected(g) {
			disconnected++
		}
	}

	rng := ds.NewRand(59)
	for n := 2; n <= 32; n++ {
		for _, p := range []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.6, 0.85} {
			for draw := 0; draw < 12; draw++ {
				check(fmt.Sprintf("G(%d,%.2f)#%d", n, p, draw), graph.Gnp(n, p, rng))
			}
		}
	}
	for cliques := 2; cliques <= 5; cliques++ {
		for size := 3; size <= 9; size++ {
			for bridge := 1; bridge < size-1; bridge++ {
				g, err := graph.CliqueChain(cliques, size, bridge)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("CC(%d,%d,%d)", cliques, size, bridge), g)
			}
		}
	}
	if g := twoK5(); EdgeConnectivity(g) != 0 || g.MinDegree() != 4 {
		t.Fatalf("two disjoint K5s: λ = %d, δ = %d, want 0 and 4", EdgeConnectivity(g), g.MinDegree())
	}
	check("2K5", twoK5())
	for _, fam := range coldPackFamilies(t) {
		check(fam.name, fam.g)
	}
	if belowDelta < 150 || disconnected < 1000 {
		t.Fatalf("sweep too easy: %d graphs, %d with λ < δ, %d disconnected", graphs, belowDelta, disconnected)
	}
	t.Logf("%d graphs agree; %d with λ < δ, %d disconnected", graphs, belowDelta, disconnected)
}

// TestDominatingSetGreedy checks that dominatingSet dominates and takes
// the max-coverage choice: on Q8 it needs 32 vertices where first-fit
// by id needs 128.
func TestDominatingSetGreedy(t *testing.T) {
	for _, fam := range coldPackFamilies(t) {
		dom := dominatingSet(fam.g)
		seen := make([]bool, fam.g.N())
		for _, d := range dom {
			seen[d] = true
			for _, u := range fam.g.Neighbors(int(d)) {
				seen[u] = true
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("%s: vertex %d is not dominated by %v", fam.name, v, dom)
			}
		}
	}
	if got := len(dominatingSet(graph.Hypercube(8))); got != 32 {
		t.Fatalf("Q8: %d dominating vertices, want 32", got)
	}
}

// encodeGraph writes g in FuzzEdgeConnectivity's input format: one byte
// for n-1, then the upper triangle of the adjacency matrix as a bit
// string, row by row.
func encodeGraph(g *graph.Graph) []byte {
	n := g.N()
	out := []byte{byte(n - 1)}
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bit%8 == 0 {
				out = append(out, 0)
			}
			if g.HasEdge(u, v) {
				out[len(out)-1] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	return out
}

// decodeGraph is encodeGraph's inverse for any byte string: n is at most
// maxFuzzN, and missing bits are absent edges.
func decodeGraph(data []byte) *graph.Graph {
	const maxFuzzN = 24
	if len(data) == 0 {
		return graph.NewBuilder(1).Graph()
	}
	n := int(data[0])%maxFuzzN + 1
	bits := data[1:]
	b := graph.NewBuilder(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bit/8 < len(bits) && bits[bit/8]&(1<<(bit%8)) != 0 {
				b.AddEdge(u, v)
			}
			bit++
		}
	}
	return b.Graph()
}

// FuzzEdgeConnectivity requires the dominating-set EdgeConnectivity to
// agree with Stoer–Wagner on any graph of at most 24 vertices. The
// service computes λ this way on graphs its clients send.
//
// `make ci` runs a 10-second smoke of this fuzzer; longer local runs:
//
//	go test -fuzz FuzzEdgeConnectivity -fuzztime 2m ./internal/flow
func FuzzEdgeConnectivity(f *testing.F) {
	chain, err := graph.CliqueChain(3, 6, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, g := range []*graph.Graph{
		graph.Path(2), graph.Cycle(8), graph.Complete(7), graph.Hypercube(4),
		graph.Torus(4, 5), chain, twoK5(),
	} {
		f.Add(encodeGraph(g))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		if got, want := EdgeConnectivity(g), StoerWagner(g); got != want {
			t.Fatalf("n=%d m=%d: EdgeConnectivity = %d, StoerWagner = %d", g.N(), g.M(), got, want)
		}
	})
}
