package graph

import (
	"testing"

	"repro/internal/ds"
)

func TestBFSDistances(t *testing.T) {
	g := Path(6)
	dist, parent := BFS(g, 0)
	for v := 0; v < 6; v++ {
		if int(dist[v]) != v {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	if parent[0] != -1 {
		t.Fatalf("parent of source = %d, want -1", parent[0])
	}
	for v := 1; v < 6; v++ {
		if int(parent[v]) != v-1 {
			t.Fatalf("parent[%d] = %d, want %d", v, parent[v], v-1)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdgeList(4, [][2]int{{0, 1}}) // {2,3} isolated
	dist, parent := BFS(g, 0)
	if dist[2] != -1 || parent[2] != -1 {
		t.Fatalf("unreachable vertex has dist=%d parent=%d", dist[2], parent[2])
	}
}

func TestDiameterKnownFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"P10", Path(10), 9},
		{"C10", Cycle(10), 5},
		{"K5", Complete(5), 1},
		{"Q4", Hypercube(4), 4},
		{"Torus4x4", Torus(4, 4), 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Diameter(tc.g); got != tc.want {
				t.Fatalf("Diameter = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestApproxDiameterWithinFactor2(t *testing.T) {
	rng := ds.NewRand(17)
	graphs := []*Graph{
		Path(30), Cycle(30), Hypercube(5), Torus(5, 6),
		RandomHamCycles(60, 2, rng),
	}
	for i, g := range graphs {
		exact := Diameter(g)
		approx := ApproxDiameter(g)
		if approx < exact || approx > 2*exact {
			t.Fatalf("graph %d: ApproxDiameter = %d outside [%d, %d]", i, approx, exact, 2*exact)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := FromEdgeList(4, [][2]int{{0, 1}})
	if Diameter(g) != -1 {
		t.Fatal("Diameter of disconnected graph != -1")
	}
	if ApproxDiameter(g) != -1 {
		t.Fatal("ApproxDiameter of disconnected graph != -1")
	}
	if Eccentricity(g, 0) != -1 {
		t.Fatal("Eccentricity in disconnected graph != -1")
	}
}

func TestBFSRestricted(t *testing.T) {
	g := Path(6)
	// Only even vertices allowed: from 0 we can reach only 0.
	dist := BFSRestricted(g, 0, func(v int) bool { return v%2 == 0 })
	if dist[0] != 0 {
		t.Fatalf("dist[0] = %d, want 0", dist[0])
	}
	for v := 1; v < 6; v++ {
		if dist[v] != -1 {
			t.Fatalf("dist[%d] = %d, want -1", v, dist[v])
		}
	}
	// Disallowed source reaches nothing.
	dist = BFSRestricted(g, 1, func(v int) bool { return v%2 == 0 })
	for v := 0; v < 6; v++ {
		if dist[v] != -1 {
			t.Fatalf("disallowed source: dist[%d] = %d, want -1", v, dist[v])
		}
	}
}

func TestIsConnectedEmptyAndSingle(t *testing.T) {
	if !IsConnected(NewBuilder(0).Graph()) {
		t.Fatal("empty graph should count as connected")
	}
	if !IsConnected(NewBuilder(1).Graph()) {
		t.Fatal("single vertex should be connected")
	}
	if IsConnected(NewBuilder(2).Graph()) {
		t.Fatal("two isolated vertices reported connected")
	}
}
