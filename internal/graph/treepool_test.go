package graph

import (
	"testing"

	"repro/internal/ds"
)

// treeFromEdgesReference is the allocation-heavy path the pool replaces:
// rebuild a Graph from the tree edges and BFS it.
func treeFromEdgesReference(g *Graph, edgeIDs []int, root int) *Tree {
	b := NewBuilder(g.N())
	for _, e := range edgeIDs {
		u, v := g.Endpoints(e)
		b.AddEdge(u, v)
	}
	return TreeFromBFS(b.Graph(), root)
}

// spanningEdgeIDs picks a deterministic spanning tree of g by a BFS over
// edge ids.
func spanningEdgeIDs(t *testing.T, g *Graph) []int {
	t.Helper()
	uf := ds.NewUnionFind(g.N())
	var ids []int
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if uf.Union(u, v) {
			ids = append(ids, e)
		}
	}
	if len(ids) != g.N()-1 {
		t.Fatalf("graph not connected: %d tree edges for n=%d", len(ids), g.N())
	}
	return ids
}

func TestTreePoolMatchesBuilderBFS(t *testing.T) {
	cases := []*Graph{
		Hypercube(4),
		Complete(12),
		Torus(4, 5),
		Cycle(9),
	}
	pool := NewTreePool(32)
	rng := ds.NewRand(1)
	for i := 0; i < 2*len(cases); i++ {
		// Odd rounds pass the same edge ids shuffled: the rooted tree
		// must not depend on their order.
		g := cases[i/2]
		ids := spanningEdgeIDs(t, g)
		want := treeFromEdgesReference(g, ids, 0)
		if i%2 == 1 {
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		}
		got, err := pool.SpanningFromEdgeIDs(g, ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Root() != want.Root() || got.Size() != want.Size() {
			t.Fatalf("root/size mismatch: got (%d,%d) want (%d,%d)", got.Root(), got.Size(), want.Root(), want.Size())
		}
		for v := 0; v < g.N(); v++ {
			gp, gok := got.Parent(v)
			wp, wok := want.Parent(v)
			if gp != wp || gok != wok {
				t.Fatalf("parent[%d]: got (%d,%v) want (%d,%v)", v, gp, gok, wp, wok)
			}
		}
		if err := got.ValidateIn(g); err != nil {
			t.Fatal(err)
		}
		if !got.IsSpanning(g) {
			t.Fatal("pool tree not spanning")
		}
	}
}

func TestTreePoolReusedAcrossTrees(t *testing.T) {
	g := Complete(10)
	pool := NewTreePool(g.N())
	// Two different spanning trees through the same pool must not bleed
	// adjacency into each other.
	star := make([]int, 0, g.N()-1)
	for v := 1; v < g.N(); v++ {
		id, ok := g.EdgeID(0, v)
		if !ok {
			t.Fatalf("edge (0,%d) missing", v)
		}
		star = append(star, id)
	}
	path := make([]int, 0, g.N()-1)
	for v := 0; v < g.N()-1; v++ {
		id, ok := g.EdgeID(v, v+1)
		if !ok {
			t.Fatalf("edge (%d,%d) missing", v, v+1)
		}
		path = append(path, id)
	}
	for trial := 0; trial < 3; trial++ {
		for _, ids := range [][]int{star, path} {
			got, err := pool.SpanningFromEdgeIDs(g, ids, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := treeFromEdgesReference(g, ids, 0)
			for v := 0; v < g.N(); v++ {
				gp, _ := got.Parent(v)
				wp, _ := want.Parent(v)
				if gp != wp {
					t.Fatalf("trial %d parent[%d]: got %d want %d", trial, v, gp, wp)
				}
			}
		}
	}
}

// TestTreePoolTreesShareVertexList checks that every tree a pool builds
// lists all n vertices in order from one shared slice, also when the
// pool is sized for more vertices than the graph has.
func TestTreePoolTreesShareVertexList(t *testing.T) {
	pool := NewTreePool(32)
	var first *Tree
	for _, g := range []*Graph{Complete(10), Cycle(10), Hypercube(3)} {
		tr, err := pool.SpanningFromEdgeIDs(g, spanningEdgeIDs(t, g), 0)
		if err != nil {
			t.Fatal(err)
		}
		vs := tr.Vertices()
		if len(vs) != g.N() {
			t.Fatalf("%d vertices listed for n = %d", len(vs), g.N())
		}
		for i, v := range vs {
			if int(v) != i {
				t.Fatalf("Vertices()[%d] = %d", i, v)
			}
		}
		if first == nil {
			first = tr
		} else if &vs[0] != &first.Vertices()[0] {
			t.Fatal("two trees of one pool hold separate vertex lists")
		}
	}
}

func TestTreePoolRejectsNonSpanning(t *testing.T) {
	g := Cycle(6)
	ids := spanningEdgeIDs(t, g)
	if _, err := NewTreePool(g.N()).SpanningFromEdgeIDs(g, ids[:len(ids)-1], 0); err == nil {
		t.Fatal("accepted too few edges")
	}
	// n-1 edges that do not span: duplicate-component shape — a path on
	// {0,1,2} plus an edge of {3,4} leaves 5 unreached with 4 edges on C6.
	bad := []int{ids[0], ids[1], ids[2], ids[3]}
	pool := NewTreePool(g.N())
	if _, err := pool.SpanningFromEdgeIDs(g, bad[:3], 0); err == nil {
		t.Fatal("accepted 3 edges for n=6")
	}
}
