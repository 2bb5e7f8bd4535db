package graph

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestNewTreeValid(t *testing.T) {
	tr, err := NewTree(5, 0, map[int]int{1: 0, 2: 0, 3: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 4 || tr.Root() != 0 {
		t.Fatalf("size=%d root=%d", tr.Size(), tr.Root())
	}
	if !tr.Contains(3) || tr.Contains(4) {
		t.Fatal("Contains bookkeeping wrong")
	}
	if p, ok := tr.Parent(3); !ok || p != 1 {
		t.Fatalf("Parent(3) = (%d,%v), want (1,true)", p, ok)
	}
	if _, ok := tr.Parent(0); ok {
		t.Fatal("root reported a parent")
	}
	if h := tr.Height(); h != 2 {
		t.Fatalf("Height = %d, want 2", h)
	}
}

// TestNewTreeRejectsBadStructures pins the shared linear validator's
// error paths and messages, reached through both the parent-map
// constructor and the parent-array one.
func TestNewTreeRejectsBadStructures(t *testing.T) {
	const A, R = TreeAbsent, TreeRoot
	cases := []struct {
		name    string
		parents map[int]int
		array   []int32
		want    string
	}{
		{"cycle", map[int]int{1: 2, 2: 1, 3: 0}, []int32{R, 2, 1, 0}, "graph: cycle in parent chain of vertex 1"},
		{"self-parent", map[int]int{1: 0, 2: 2}, []int32{R, 0, 2, A}, "graph: cycle in parent chain of vertex 2"},
		{"leaves-tree", map[int]int{1: 2, 3: 1}, []int32{R, 2, A, 1}, "graph: vertex 1's ancestor chain leaves the tree"},
		{"second-root", map[int]int{1: 0, 2: -1}, []int32{R, 0, R, A}, "graph: tree entry 2->-1 out of range"},
		{"parent-out-of-range", map[int]int{1: 0, 2: 7}, []int32{R, 0, 7, A}, "graph: tree entry 2->7 out of range"},
	}
	for _, c := range cases {
		if _, err := NewTree(4, 0, c.parents); err == nil || err.Error() != c.want {
			t.Errorf("%s: NewTree error %v, want %q", c.name, err, c.want)
		}
		if _, err := TreeFromParents(0, c.array); err == nil || err.Error() != c.want {
			t.Errorf("%s: TreeFromParents error %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := NewTree(4, 9, nil); err == nil || err.Error() != "graph: tree root 9 out of range" {
		t.Errorf("out-of-range root: NewTree error %v", err)
	}
	if _, err := TreeFromParents(4, []int32{R, 0, A, A}); err == nil || err.Error() != "graph: tree root 4 out of range" {
		t.Errorf("out-of-range root: TreeFromParents error %v", err)
	}
	if _, err := TreeFromParents(1, []int32{R, 0, A, A}); err == nil || err.Error() != "graph: root 1 has parent 0" {
		t.Errorf("root with a parent: error %v", err)
	}
	if _, err := NewTree(4, 0, map[int]int{1: 0, 9: 1}); err == nil || err.Error() != "graph: tree entry 9->1 out of range" {
		t.Errorf("out-of-range vertex: error %v", err)
	}
}

// TestNewTreeLongPathLinear builds a path on 2^16 vertices rooted at
// either end. Validation that walks every vertex's ancestor chain is
// quadratic here and takes seconds; the linear pass takes milliseconds.
func TestNewTreeLongPathLinear(t *testing.T) {
	const n = 1 << 16
	for _, root := range []int{0, n - 1} {
		step := -1 // each vertex's parent is its neighbour toward the root
		if root != 0 {
			step = 1
		}
		parentOf := make(map[int]int, n)
		for v := 0; v < n; v++ {
			if v != root {
				parentOf[v] = v + step
			}
		}
		start := time.Now()
		tr, err := NewTree(n, root, parentOf)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("root %d: NewTree on a %d-vertex path took %v, want linear time", root, n, el)
		}
		if tr.Size() != n || tr.Height() != n-1 {
			t.Fatalf("root %d: size %d height %d, want %d and %d", root, tr.Size(), tr.Height(), n, n-1)
		}
	}
}

func TestTreeFromBFSSpanning(t *testing.T) {
	g := Hypercube(3)
	tr := TreeFromBFS(g, 0)
	if !tr.IsSpanning(g) {
		t.Fatal("BFS tree of connected graph not spanning")
	}
	if err := tr.ValidateIn(g); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h != 3 {
		t.Fatalf("BFS height of Q3 = %d, want 3", h)
	}
	if !tr.IsDominatingIn(g) {
		t.Fatal("spanning tree must dominate")
	}
}

func TestTreeDominating(t *testing.T) {
	// Star K_{1,4}: tree = center alone dominates.
	g := FromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	tr, err := NewTree(5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsDominatingIn(g) {
		t.Fatal("center of a star should dominate")
	}
	// A leaf alone does not dominate the other leaves.
	leaf, err := NewTree(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.IsDominatingIn(g) {
		t.Fatal("a single leaf cannot dominate a star")
	}
}

func TestValidateInCatchesForeignEdges(t *testing.T) {
	g := Path(4)                                            // edges 0-1,1-2,2-3
	tr, err := NewTree(4, 0, map[int]int{1: 0, 2: 0, 3: 2}) // edge (2,0) not in P4
	if err != nil {
		t.Fatal(err)
	}
	const want = "graph: tree edge (2,0) not in host graph"
	if err := tr.ValidateIn(g); err == nil || err.Error() != want {
		t.Fatalf("ValidateIn: %v, want %q", err, want)
	}
	// ForEachEdgeID gives the same verdict after visiting the ids of
	// the edges P4 has, in ForEachEdge's order.
	var ids []int
	err = tr.ForEachEdgeID(g, func(id int) { ids = append(ids, id) })
	if err == nil || err.Error() != want {
		t.Fatalf("ForEachEdgeID: %v, want %q", err, want)
	}
	id10, _ := g.EdgeID(1, 0)
	id32, _ := g.EdgeID(3, 2)
	if len(ids) != 2 || ids[0] != id10 || ids[1] != id32 {
		t.Fatalf("ForEachEdgeID visited %v, want [%d %d]", ids, id10, id32)
	}
}

func TestSpanningTreeOfSubset(t *testing.T) {
	g := Cycle(8)
	even := func(v int) bool { return v%2 == 0 }
	if _, err := SpanningTreeOfSubset(g, even); err == nil {
		t.Fatal("disconnected induced subgraph accepted")
	}
	firstHalf := func(v int) bool { return v < 5 }
	tr, err := SpanningTreeOfSubset(g, firstHalf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 5 {
		t.Fatalf("Size = %d, want 5", tr.Size())
	}
	if err := tr.ValidateIn(g); err != nil {
		t.Fatal(err)
	}
	if _, err := SpanningTreeOfSubset(g, func(int) bool { return false }); err == nil {
		t.Fatal("empty set accepted")
	}

	// On Q4 the BFS from 0 reaches 1, 2, 4 and 8 before 3; the vertex
	// list must still come out ascending.
	q4 := Hypercube(4)
	inSet := func(v int) bool { return v != 6 && v != 9 }
	tr, err = SpanningTreeOfSubset(q4, inSet)
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for v := 0; v < q4.N(); v++ {
		if inSet(v) {
			want = append(want, int32(v))
		}
	}
	if !slices.Equal(tr.Vertices(), want) {
		t.Fatalf("Vertices() = %v, want %v", tr.Vertices(), want)
	}
	if err := tr.ValidateIn(q4); err != nil {
		t.Fatal(err)
	}
}

func TestForEachEdgeCount(t *testing.T) {
	g := Complete(6)
	tr := TreeFromBFS(g, 2)
	edges := 0
	tr.ForEachEdge(func(child, parent int) {
		edges++
		if !g.HasEdge(child, parent) {
			t.Fatalf("edge (%d,%d) not in host", child, parent)
		}
	})
	if edges != tr.Size()-1 {
		t.Fatalf("ForEachEdge visited %d edges, want %d", edges, tr.Size()-1)
	}
}

func TestWriteDOT(t *testing.T) {
	g := Path(3)
	var sb strings.Builder
	err := WriteDOT(&sb, g, DOTOptions{Name: "P3"})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph P3", "n0 -- n1", "n1 -- n2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
