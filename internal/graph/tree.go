package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Tree is a subtree of a host graph on n vertices, stored as a parent
// forest: parent[v] = TreeRoot for the root, TreeAbsent for vertices
// not in the tree. Dominating-tree and spanning-tree packings are
// collections of WeightedTrees.
type Tree struct {
	root     int32
	parent   []int32
	vertices []int32 // sorted
}

// WeightedTree is one tree τ of a fractional packing with its weight
// w_τ; a packing is a []WeightedTree of size Σ w_τ. Both decompositions
// use it, and the packers, the check oracles, the broadcast scheduler
// and the snapshot format all pass the same slice along.
type WeightedTree struct {
	Tree   *Tree
	Weight float64
}

// The parent-array sentinels of a Tree (see TreeFromParents).
const (
	TreeAbsent = -2 // the vertex is not in the tree
	TreeRoot   = -1 // the vertex is the root
)

// NewTree builds a Tree over a host graph with n vertices from a parent
// map. parentOf must map every non-root tree vertex to its parent; the
// root maps to -1 or is left out. It returns an error if the structure
// is not a single tree rooted at root. It costs O(n) map lookups plus
// TreeFromParents' linear pass.
func NewTree(n int, root int, parentOf map[int]int) (*Tree, error) {
	if root < 0 || root >= n {
		return nil, fmt.Errorf("graph: tree root %d out of range", root)
	}
	parent := make([]int32, n)
	found := 0
	for v := range parent {
		p, ok := parentOf[v]
		switch {
		case !ok:
			parent[v] = TreeAbsent
			continue
		case v == root && p != TreeRoot:
			return nil, fmt.Errorf("graph: root %d has parent %d", root, p)
		case v != root && (p < 0 || p >= n):
			return nil, fmt.Errorf("graph: tree entry %d->%d out of range", v, p)
		}
		parent[v] = int32(p)
		found++
	}
	if found != len(parentOf) {
		// Some key lies outside [0, n); name the smallest.
		for _, v := range slices.Sorted(maps.Keys(parentOf)) {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: tree entry %d->%d out of range", v, parentOf[v])
			}
		}
	}
	parent[root] = TreeRoot
	return TreeFromParents(root, parent)
}

// TreeFromParents builds a Tree from its parent array over n =
// len(parent) host vertices and takes ownership of the array:
// parent[root] is TreeRoot, parent[v] is TreeAbsent for every vertex
// outside the tree, and every other entry is v's parent. It returns an
// error unless the entries form a single tree rooted at root. The check
// is one linear pass that marks each vertex once: a vertex's walk
// toward the root stops at the first vertex already known to reach it.
func TreeFromParents(root int, parent []int32) (*Tree, error) {
	n := len(parent)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("graph: tree root %d out of range", root)
	}
	if p := parent[root]; p != TreeRoot {
		return nil, fmt.Errorf("graph: root %d has parent %d", root, p)
	}
	size := 0
	for v, p := range parent {
		if p == TreeAbsent {
			continue
		}
		if v != root && (p < 0 || int(p) >= n) {
			return nil, fmt.Errorf("graph: tree entry %d->%d out of range", v, p)
		}
		size++
	}
	t := &Tree{root: int32(root), parent: parent, vertices: make([]int32, 0, size)}
	for v, p := range parent {
		if p != TreeAbsent {
			t.vertices = append(t.vertices, int32(v))
		}
	}
	const (
		unseen = iota
		onPath
		reachesRoot
	)
	mark := make([]uint8, n)
	mark[root] = reachesRoot
	for _, v := range t.vertices {
		u := v
		for mark[u] == unseen {
			mark[u] = onPath
			u = parent[u]
			if parent[u] == TreeAbsent {
				return nil, fmt.Errorf("graph: vertex %d's ancestor chain leaves the tree", v)
			}
		}
		if mark[u] == onPath {
			return nil, fmt.Errorf("graph: cycle in parent chain of vertex %d", v)
		}
		for u := v; mark[u] == onPath; u = parent[u] {
			mark[u] = reachesRoot
		}
	}
	return t, nil
}

// TreeFromBFS builds the BFS spanning tree of g's component containing
// root.
func TreeFromBFS(g *Graph, root int) *Tree {
	dist, parent := BFS(g, root)
	t := &Tree{root: int32(root), parent: make([]int32, g.n)}
	for i := range t.parent {
		t.parent[i] = TreeAbsent
	}
	for v := 0; v < g.n; v++ {
		if dist[v] < 0 {
			continue
		}
		if v == root {
			t.parent[v] = TreeRoot
		} else {
			t.parent[v] = parent[v]
		}
		t.vertices = append(t.vertices, int32(v))
	}
	return t
}

// Root returns the tree root.
func (t *Tree) Root() int { return int(t.root) }

// Size returns the number of vertices in the tree.
func (t *Tree) Size() int { return len(t.vertices) }

// Contains reports whether v is a tree vertex.
func (t *Tree) Contains(v int) bool { return t.parent[v] != TreeAbsent }

// Parent returns v's parent and true, or (-1,false) for the root or for
// vertices outside the tree.
func (t *Tree) Parent(v int) (int, bool) {
	p := t.parent[v]
	if p < 0 {
		return -1, false
	}
	return int(p), true
}

// Vertices returns the sorted vertex list. The slice is shared; do not
// modify it.
func (t *Tree) Vertices() []int32 { return t.vertices }

// ForEachEdge calls fn once per tree edge (child, parent).
func (t *Tree) ForEachEdge(fn func(child, parent int)) {
	for _, v := range t.vertices {
		if p := t.parent[v]; p >= 0 {
			fn(int(v), int(p))
		}
	}
}

// Height returns the maximum root-to-leaf distance (0 for a single
// vertex). Because every tree path between two vertices has length at
// most 2*Height, this bounds the tree diameter the paper's Theorem 1.1
// constrains.
func (t *Tree) Height() int {
	depth := make(map[int32]int32, len(t.vertices))
	var depthOf func(v int32) int32
	depthOf = func(v int32) int32 {
		if t.parent[v] == TreeRoot {
			return 0
		}
		if d, ok := depth[v]; ok {
			return d
		}
		d := depthOf(t.parent[v]) + 1
		depth[v] = d
		return d
	}
	max := int32(0)
	for _, v := range t.vertices {
		if d := depthOf(v); d > max {
			max = d
		}
	}
	return int(max)
}

// ValidateIn checks that t is a tree whose edges all exist in g.
func (t *Tree) ValidateIn(g *Graph) error {
	return t.ForEachEdgeID(g, func(int) {})
}

// ForEachEdgeID calls fn with the id in g of every tree edge g has, in
// ForEachEdge's order, looking each edge up once. It then returns
// ValidateIn's verdict: an error for an empty tree or one naming the
// first tree edge g lacks, nil otherwise.
func (t *Tree) ForEachEdgeID(g *Graph, fn func(id int)) error {
	if len(t.vertices) == 0 {
		return fmt.Errorf("graph: empty tree")
	}
	var missing error
	for _, v := range t.vertices {
		p := t.parent[v]
		if p < 0 {
			continue
		}
		if id, ok := g.EdgeID(int(v), int(p)); ok {
			fn(id)
		} else if missing == nil {
			missing = fmt.Errorf("graph: tree edge (%d,%d) not in host graph", v, p)
		}
	}
	return missing
}

// IsSpanning reports whether t contains every vertex of g.
func (t *Tree) IsSpanning(g *Graph) bool { return len(t.vertices) == g.n }

// IsDominatingIn reports whether every vertex of g is in t or adjacent
// to a vertex of t — the dominating-tree condition of Section 2.
func (t *Tree) IsDominatingIn(g *Graph) bool {
	for v := 0; v < g.n; v++ {
		if t.Contains(v) {
			continue
		}
		dominated := false
		for _, w := range g.Neighbors(v) {
			if t.Contains(int(w)) {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// SpanningTreeOfSubset builds a spanning tree of g[S] (the subgraph
// induced by S) rooted at the smallest vertex of S, provided g[S] is
// connected. This implements the paper's CDS-to-dominating-tree step
// (the 0/1-weight MST of Section 3.1 reduces to exactly this).
func SpanningTreeOfSubset(g *Graph, inSet func(v int) bool) (*Tree, error) {
	root := -1
	for v := 0; v < g.n; v++ {
		if inSet(v) {
			root = v
			break
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("graph: empty vertex set")
	}
	t := &Tree{root: int32(root), parent: make([]int32, g.n)}
	for i := range t.parent {
		t.parent[i] = TreeAbsent
	}
	t.parent[root] = TreeRoot
	t.vertices = append(t.vertices, int32(root))
	queue := []int32{int32(root)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if inSet(int(v)) && t.parent[v] == TreeAbsent {
				t.parent[v] = u
				t.vertices = append(t.vertices, v)
				queue = append(queue, v)
			}
		}
	}
	size := 0
	for v := 0; v < g.n; v++ {
		if inSet(v) {
			size++
		}
	}
	if size != len(t.vertices) {
		return nil, fmt.Errorf("graph: induced subgraph disconnected (%d of %d reached)", len(t.vertices), size)
	}
	sort.Slice(t.vertices, func(i, j int) bool { return t.vertices[i] < t.vertices[j] })
	return t, nil
}
