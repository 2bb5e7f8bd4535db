package check_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/graph"
)

// buildGraph constructs a graph through the CSR builder, the same path
// every generator uses.
func buildGraph(n int, edges [][2]int) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Graph()
}

func mustTree(t *testing.T, n, root int, parentOf map[int]int) *graph.Tree {
	t.Helper()
	tr, err := graph.NewTree(n, root, parentOf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDominatingPackingAcceptsValid(t *testing.T) {
	g := graph.Complete(6)
	spanning := graph.TreeFromBFS(g, 0)
	trees := []graph.WeightedTree{{Tree: spanning, Weight: 1}}
	if err := check.DominatingPacking(g, trees, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDominatingPackingViolations(t *testing.T) {
	g := graph.Complete(6)
	span := graph.TreeFromBFS(g, 0)
	// A 2-vertex subtree of K6 still dominates (everything neighbors 0).
	sub := mustTree(t, 6, 0, map[int]int{1: 0})
	// A path graph where a single-leaf tree cannot dominate.
	pathG := buildGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	leaf := mustTree(t, 5, 0, nil)
	// A tree edge absent from the host graph.
	cycle := graph.Cycle(6)
	chord := mustTree(t, 6, 0, map[int]int{3: 0})

	cases := []struct {
		name  string
		g     *graph.Graph
		trees []graph.WeightedTree
		kappa int
		want  string
	}{
		{"empty", g, nil, 0, "empty packing"},
		{"weight-zero", g, []graph.WeightedTree{{Tree: span, Weight: 0}}, 0, "outside (0,1]"},
		{"weight-high", g, []graph.WeightedTree{{Tree: span, Weight: 1.5}}, 0, "outside (0,1]"},
		{"overload", g, []graph.WeightedTree{{Tree: span, Weight: 0.8}, {Tree: sub, Weight: 0.8}}, 0, "fractional load"},
		{"non-dominating", pathG, []graph.WeightedTree{{Tree: leaf, Weight: 1}}, 0, "does not dominate"},
		{"edge-missing", cycle, []graph.WeightedTree{{Tree: chord, Weight: 1}}, 0, "not in host graph"},
		{"below-floor", g, []graph.WeightedTree{{Tree: span, Weight: 0.01}}, 5, "below Theorem 1.1 floor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := check.DominatingPacking(tc.g, tc.trees, tc.kappa)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestSpanningPackingAcceptsValid(t *testing.T) {
	g := graph.Complete(5)
	t1 := graph.TreeFromBFS(g, 0)
	t2 := graph.TreeFromBFS(g, 1)
	trees := []graph.WeightedTree{{Tree: t1, Weight: 0.5}, {Tree: t2, Weight: 0.5}}
	if err := check.SpanningPacking(g, trees, 1, check.SpanningFloor(2, 0.1)); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningPackingViolations(t *testing.T) {
	g := graph.Complete(5)
	span := graph.TreeFromBFS(g, 0)
	partial := mustTree(t, 5, 0, map[int]int{1: 0})
	// A path and a star that share the edges (1,2) and (2,3): at 0.75
	// each both carry 1.5, and the error names the lower edge id.
	path := mustTree(t, 5, 0, map[int]int{1: 0, 2: 1, 3: 2, 4: 3})
	star := mustTree(t, 5, 2, map[int]int{0: 2, 1: 2, 3: 2, 4: 2})
	// On C6, a spanning tree whose edge (3,0) is a chord the cycle lacks.
	cycle := graph.Cycle(6)
	chord := mustTree(t, 6, 0, map[int]int{1: 0, 2: 1, 3: 0, 4: 3, 5: 4})

	cases := []struct {
		name     string
		g        *graph.Graph
		trees    []graph.WeightedTree
		capacity float64
		minSize  float64
		want     string
	}{
		{"empty", g, nil, 1, 0, "empty packing"},
		{"not-spanning", g, []graph.WeightedTree{{Tree: partial, Weight: 1}}, 1, 0, "spans 2 of 5"},
		{"edge-overload", g, []graph.WeightedTree{{Tree: span, Weight: 0.8}, {Tree: span, Weight: 0.8}}, 1, 0, "> capacity"},
		{"overload-names-first-max-edge", g, []graph.WeightedTree{{Tree: path, Weight: 0.75}, {Tree: star, Weight: 0.75}}, 1, 0,
			"check: edge (1,2) carries fractional load 1.5 > capacity 1"},
		{"edge-missing-second-tree", cycle, []graph.WeightedTree{{Tree: graph.TreeFromBFS(cycle, 0), Weight: 0.5}, {Tree: chord, Weight: 0.5}}, 1, 0,
			"check: tree 1: " + chord.ValidateIn(cycle).Error()},
		{"below-floor", g, []graph.WeightedTree{{Tree: span, Weight: 0.1}}, 1, 1.0, "below floor"},
		{"weight-nonpositive", g, []graph.WeightedTree{{Tree: span, Weight: -0.2}}, 1, 0, "not positive"},
	}
	if want := "graph: tree edge (3,0) not in host graph"; chord.ValidateIn(cycle).Error() != want {
		t.Fatalf("ValidateIn of the chord tree: %v, want %q", chord.ValidateIn(cycle), want)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := check.SpanningPacking(tc.g, tc.trees, tc.capacity, tc.minSize)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestEdgeCongestionDoubledTree(t *testing.T) {
	g := graph.Complete(4)
	span := graph.TreeFromBFS(g, 0)
	load, _ := check.EdgeCongestion(g, []graph.WeightedTree{
		{Tree: span, Weight: 0.75}, {Tree: span, Weight: 0.75},
	})
	if math.Abs(load-1.5) > 1e-12 {
		t.Fatalf("edge congestion %v, want 1.5", load)
	}
	if vl := check.VertexLoad(4, []graph.WeightedTree{{Tree: span, Weight: 0.75}}); math.Abs(vl-0.75) > 1e-12 {
		t.Fatalf("vertex load %v, want 0.75", vl)
	}
}

func TestPartition(t *testing.T) {
	// C6 with two classes: evens and odds — each dominates and each is
	// NOT connected (alternating vertices of a cycle are independent),
	// so connectivity must flag both.
	g := graph.Cycle(6)
	classOf := make([][]int32, 6)
	for v := 0; v < 6; v++ {
		classOf[v] = []int32{int32(v % 2)}
	}
	dom, conn := check.Partition(g, classOf, 2)
	if dom != 0 {
		t.Fatalf("domination failures %d, want 0", dom)
	}
	if conn != 2 {
		t.Fatalf("connectivity failures %d, want 2", conn)
	}

	// One class holding every vertex: valid.
	for v := range classOf {
		classOf[v] = []int32{0}
	}
	if dom, conn := check.Partition(g, classOf, 1); dom != 0 || conn != 0 {
		t.Fatalf("whole-graph class flagged: dom=%d conn=%d", dom, conn)
	}

	// A class with no members fails domination everywhere and counts as
	// disconnected.
	if dom, conn := check.Partition(g, classOf, 2); dom != 6 || conn != 1 {
		t.Fatalf("empty class: dom=%d conn=%d, want 6, 1", dom, conn)
	}
}

func TestClassesOf(t *testing.T) {
	g := graph.Complete(4)
	span := graph.TreeFromBFS(g, 0)
	sub := mustTree(t, 4, 1, map[int]int{2: 1})
	classOf := check.ClassesOf(4, []graph.WeightedTree{{Tree: span, Weight: 1}, {Tree: sub, Weight: 1}})
	want := [][]int32{{0}, {0, 1}, {0, 1}, {0}}
	for v := range want {
		if len(classOf[v]) != len(want[v]) {
			t.Fatalf("vertex %d classes %v, want %v", v, classOf[v], want[v])
		}
		for i := range want[v] {
			if classOf[v][i] != want[v][i] {
				t.Fatalf("vertex %d classes %v, want %v", v, classOf[v], want[v])
			}
		}
	}
	// ClassesInto refills the same rows: the second packing lists only
	// sub, so vertices 0 and 3 end with no class.
	check.ClassesInto(classOf, []graph.WeightedTree{{Tree: sub, Weight: 1}})
	want = [][]int32{{}, {0}, {0}, {}}
	for v := range want {
		if !slices.Equal(classOf[v], want[v]) {
			t.Fatalf("after ClassesInto, vertex %d classes %v, want %v", v, classOf[v], want[v])
		}
	}
}

func TestFloors(t *testing.T) {
	if f := check.DominatingFloor(8, 64); f <= 0 || f > 8 {
		t.Fatalf("DominatingFloor(8, 64) = %v out of (0, 8]", f)
	}
	if f := check.SpanningFloor(15, 0.1); math.Abs(f-7*0.4) > 1e-12 {
		t.Fatalf("SpanningFloor(15, 0.1) = %v, want 2.8", f)
	}
	if f := check.SpanningFloor(2, 0.3); f != 0 {
		t.Fatalf("SpanningFloor(2, 0.3) = %v, want 0", f)
	}
	if f := check.SpanningFloor(3, 0.5); f != 0 {
		t.Fatalf("negative floor not clamped: %v", f)
	}
}
