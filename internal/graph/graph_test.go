package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/ds"
)

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(2, 2) // self-loop
	b.AddEdge(2, 3)
	g := b.Graph()
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge(0,1) missing")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self-loop survived")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("phantom edge (0,3)")
	}
}

func TestGraphDegreesAndEdgeIDs(t *testing.T) {
	g := FromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}})
	if g.Degree(0) != 3 {
		t.Fatalf("Degree(0) = %d, want 3", g.Degree(0))
	}
	if g.MinDegree() != 1 {
		t.Fatalf("MinDegree = %d, want 1", g.MinDegree())
	}
	// Every incident edge id must round-trip through Endpoints.
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		eids := g.IncidentEdges(u)
		if len(nbrs) != len(eids) {
			t.Fatalf("vertex %d: %d neighbors but %d edge ids", u, len(nbrs), len(eids))
		}
		for i, v := range nbrs {
			a, b := g.Endpoints(int(eids[i]))
			if !(a == u && b == int(v)) && !(a == int(v) && b == u) {
				t.Fatalf("edge id %d of (%d,%d) has endpoints (%d,%d)", eids[i], u, v, a, b)
			}
		}
	}
	if id, ok := g.EdgeID(3, 4); !ok {
		t.Fatal("EdgeID(3,4) not found")
	} else if a, b := g.Endpoints(id); a != 3 || b != 4 {
		t.Fatalf("Endpoints(%d) = (%d,%d), want (3,4)", id, a, b)
	}
	if _, ok := g.EdgeID(1, 4); ok {
		t.Fatal("EdgeID(1,4) found for non-edge")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub, orig, err := g.InducedSubgraph([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3 has n=%d m=%d", sub.N(), sub.M())
	}
	want := []int{1, 3, 4}
	for i, v := range orig {
		if v != want[i] {
			t.Fatalf("orig = %v, want %v", orig, want)
		}
	}
	if _, _, err := g.InducedSubgraph([]int{1, 1}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{7}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestSubgraphByEdges(t *testing.T) {
	g := Cycle(6)
	even := g.SubgraphByEdges(func(id int) bool { return id%2 == 0 })
	if even.M() != 3 {
		t.Fatalf("M = %d, want 3", even.M())
	}
	if even.N() != 6 {
		t.Fatalf("N = %d, want 6 (spanning subgraph)", even.N())
	}
}

func TestGeneratorShapes(t *testing.T) {
	tests := []struct {
		name      string
		g         *Graph
		n, m      int
		regular   int // -1 = skip
		connected bool
	}{
		{"K6", Complete(6), 6, 15, 5, true},
		{"P5", Path(5), 5, 4, -1, true},
		{"C7", Cycle(7), 7, 7, 2, true},
		{"Q4", Hypercube(4), 16, 32, 4, true},
		{"Torus4x5", Torus(4, 5), 20, 40, 4, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n || tc.g.M() != tc.m {
				t.Fatalf("n=%d m=%d, want n=%d m=%d", tc.g.N(), tc.g.M(), tc.n, tc.m)
			}
			if tc.regular >= 0 {
				for v := 0; v < tc.g.N(); v++ {
					if tc.g.Degree(v) != tc.regular {
						t.Fatalf("vertex %d degree %d, want %d", v, tc.g.Degree(v), tc.regular)
					}
				}
			}
			if IsConnected(tc.g) != tc.connected {
				t.Fatalf("IsConnected = %v, want %v", IsConnected(tc.g), tc.connected)
			}
		})
	}
}

func TestHararyDegrees(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{2, 8}, {3, 8}, {4, 9}, {5, 11}, {6, 20}} {
		g, err := Harary(tc.k, tc.n)
		if err != nil {
			t.Fatalf("Harary(%d,%d): %v", tc.k, tc.n, err)
		}
		if !IsConnected(g) {
			t.Fatalf("Harary(%d,%d) disconnected", tc.k, tc.n)
		}
		if md := g.MinDegree(); md < tc.k {
			t.Fatalf("Harary(%d,%d) min degree %d < k", tc.k, tc.n, md)
		}
		// Harary is edge-minimal: ceil(kn/2) edges (within rounding for odd/odd).
		if g.M() > (tc.k*tc.n+1)/2+1 {
			t.Fatalf("Harary(%d,%d) has %d edges, expected about %d", tc.k, tc.n, g.M(), (tc.k*tc.n+1)/2)
		}
	}
	if _, err := Harary(1, 5); err == nil {
		t.Fatal("Harary(1,5) accepted")
	}
	if _, err := Harary(5, 5); err == nil {
		t.Fatal("Harary(5,5) accepted")
	}
}

// TestRandomRegular sweeps n, d (up to 12) and 40 seeds: every graph
// must be d-regular and simple.
func TestRandomRegular(t *testing.T) {
	for _, n := range []int{16, 30, 64, 256} {
		for _, d := range []int{3, 4, 5, 6, 7, 8, 12} {
			for seed := uint64(1); seed <= 40; seed++ {
				g, err := RandomRegular(n, d, ds.NewRand(seed))
				if err != nil {
					t.Fatalf("n=%d d=%d seed=%d: %v", n, d, seed, err)
				}
				// The builder drops loops and duplicates, so n*d/2 distinct
				// edges with every degree d means no stub pair was dropped.
				if g.N() != n || g.M() != n*d/2 {
					t.Fatalf("n=%d d=%d seed=%d: got n=%d m=%d", n, d, seed, g.N(), g.M())
				}
				for v := 0; v < n; v++ {
					if g.Degree(v) != d {
						t.Fatalf("n=%d d=%d seed=%d: vertex %d degree %d", n, d, seed, v, g.Degree(v))
					}
				}
			}
		}
	}
	rng := ds.NewRand(11)
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Fatal("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 5, rng); err == nil {
		t.Fatal("d >= n accepted")
	}
}

func TestRandomHamCycles(t *testing.T) {
	rng := ds.NewRand(3)
	g := RandomHamCycles(40, 3, rng)
	if !IsConnected(g) {
		t.Fatal("union of Hamiltonian cycles disconnected")
	}
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d < 2 || d > 6 {
			t.Fatalf("vertex %d degree %d outside [2,6]", v, d)
		}
	}
}

func TestCliqueChain(t *testing.T) {
	g, err := CliqueChain(4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Fatalf("N = %d, want 20", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("clique chain disconnected")
	}
	if d := Diameter(g); d < 3 {
		t.Fatalf("diameter %d too small for a chain of 4 cliques", d)
	}
	if _, err := CliqueChain(2, 3, 4); err == nil {
		t.Fatal("bridge > size accepted")
	}
}

// TestGnpEdgeCount checks G(n,p) produces a plausible number of edges.
func TestGnpEdgeCount(t *testing.T) {
	rng := ds.NewRand(5)
	n, p := 100, 0.3
	g := Gnp(n, p, rng)
	expected := float64(n*(n-1)/2) * p
	if m := float64(g.M()); m < expected*0.7 || m > expected*1.3 {
		t.Fatalf("G(100,0.3) has %d edges, expected about %.0f", g.M(), expected)
	}
}

// TestNeighborsSortedProperty: neighbor lists must be sorted and
// loop-free for any random edge set.
func TestNeighborsSortedProperty(t *testing.T) {
	property := func(pairs []uint16) bool {
		const n = 40
		b := NewBuilder(n)
		for _, p := range pairs {
			b.AddEdge(int(p)%n, int(p>>8)%n)
		}
		g := b.Graph()
		for u := 0; u < n; u++ {
			nbrs := g.Neighbors(u)
			for i, v := range nbrs {
				if int(v) == u {
					return false
				}
				if i > 0 && nbrs[i-1] >= v {
					return false
				}
			}
		}
		// Handshake: sum of degrees = 2m.
		total := 0
		for u := 0; u < n; u++ {
			total += g.Degree(u)
		}
		return total == 2*g.M()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
