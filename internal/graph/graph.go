// Package graph provides the undirected simple-graph substrate used by
// every other module: an immutable CSR adjacency with stable edge
// identifiers, generators for the families the experiments run on,
// rooted trees with the checks the packings validate against, and the
// traversal utilities (BFS, connectivity, diameter) the paper's
// algorithms assume as primitives.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Edge is an undirected edge between U and V with U < V.
type Edge struct {
	U, V int32
}

// Graph is an immutable undirected simple graph on vertices 0..N()-1 in
// CSR (compressed sparse row) form: one flat neighbor array and one flat
// incident-edge-id array, both indexed by per-vertex offsets. Neighbor
// lists are sorted; every edge has a stable identifier equal to its
// index in Edges(), which the spanning-tree packing uses for per-edge
// load accounting.
type Graph struct {
	n     int
	off   []int32 // len n+1: vertex u's adjacency is [off[u], off[u+1])
	nbr   []int32 // len 2m: flat sorted neighbor lists
	eid   []int32 // len 2m: eid[p] = edge id of (u, nbr[p])
	edges []Edge
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are silently dropped, so generators can over-propose.
// Edges are kept as packed (u,v) keys and deduplicated once at finalize
// time by sort+compact; no per-edge hashing happens unless a caller asks
// mid-build questions (HasEdge/NumEdges), which build a lazy index.
type Builder struct {
	n    int
	keys []uint64            // (u<<32)|v with u < v; may contain duplicates
	seen map[uint64]struct{} // lazy, built on first HasEdge/NumEdges call
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v}. Self-loops and duplicates
// are ignored. Vertices must be in range; out-of-range panics because it
// is always a programming error in a generator.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, b.n))
	}
	if u > v {
		u, v = v, u
	}
	k := uint64(u)<<32 | uint64(v)
	if b.seen != nil {
		if _, dup := b.seen[k]; dup {
			return
		}
		b.seen[k] = struct{}{}
	}
	b.keys = append(b.keys, k)
}

// ensureSeen builds the lazy duplicate index from the keys added so far.
func (b *Builder) ensureSeen() {
	if b.seen != nil {
		return
	}
	b.seen = make(map[uint64]struct{}, len(b.keys))
	for _, k := range b.keys {
		b.seen[k] = struct{}{}
	}
}

// HasEdge reports whether {u,v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	b.ensureSeen()
	_, ok := b.seen[uint64(u)<<32|uint64(v)]
	return ok
}

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int {
	b.ensureSeen()
	return len(b.seen)
}

// Graph finalizes the builder into an immutable Graph. The builder
// remains usable afterwards.
func (b *Builder) Graph() *Graph {
	keys := slices.Clone(b.keys)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	edges := make([]Edge, len(keys))
	for i, k := range keys {
		edges[i] = Edge{U: int32(k >> 32), V: int32(k & 0xffffffff)}
	}
	return fromEdges(b.n, edges)
}

// fromEdges builds the CSR arrays from an edge list sorted by (U,V).
// Two ordered fill passes leave every neighbor list sorted without any
// comparison sort: the first pass appends each vertex's lower neighbors
// (ascending, because edges are sorted by U), the second its higher
// neighbors (ascending, because for fixed U edges are sorted by V).
func fromEdges(n int, edges []Edge) *Graph {
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	m2 := int(off[n])
	nbr := make([]int32, m2)
	eid := make([]int32, m2)
	cur := make([]int32, n)
	copy(cur, off[:n])
	for id, e := range edges {
		p := cur[e.V]
		cur[e.V] = p + 1
		nbr[p] = e.U
		eid[p] = int32(id)
	}
	for id, e := range edges {
		p := cur[e.U]
		cur[e.U] = p + 1
		nbr[p] = e.V
		eid[p] = int32(id)
	}
	return &Graph{n: n, off: off, nbr: nbr, eid: eid, edges: edges}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// MinDegree returns the minimum degree over all vertices, or 0 for an
// empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for u := 1; u < g.n; u++ {
		if d := g.Degree(u); d < min {
			min = d
		}
	}
	return min
}

// Neighbors returns u's sorted neighbor list — a view into the shared
// CSR array; do not modify it.
func (g *Graph) Neighbors(u int) []int32 { return g.nbr[g.off[u]:g.off[u+1]] }

// IncidentEdges returns the edge ids parallel to Neighbors(u) — a view
// into the shared CSR array; do not modify it.
func (g *Graph) IncidentEdges(u int) []int32 { return g.eid[g.off[u]:g.off[u+1]] }

// AdjOffsets returns the CSR offset array (length N()+1): vertex u's
// rows in the flat arrays are [AdjOffsets()[u], AdjOffsets()[u+1]).
// Shared; do not modify.
func (g *Graph) AdjOffsets() []int32 { return g.off }

// AdjTargets returns the flat CSR neighbor array (length 2M()). Shared;
// do not modify.
func (g *Graph) AdjTargets() []int32 { return g.nbr }

// Edges returns the edge list indexed by edge id. The slice is shared;
// do not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Endpoints returns the two endpoints of edge id e.
func (g *Graph) Endpoints(e int) (int, int) {
	ed := g.edges[e]
	return int(ed.U), int(ed.V)
}

// HasEdge reports whether {u,v} is an edge, by binary search on the
// smaller neighbor list.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// EdgeID returns the id of edge {u,v} and whether it exists.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	if u == v {
		return 0, false
	}
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	if i < len(a) && a[i] == int32(v) {
		return int(g.IncidentEdges(u)[i]), true
	}
	return 0, false
}

// SubgraphByEdges returns the spanning subgraph of g containing exactly
// the edges whose ids satisfy keep.
func (g *Graph) SubgraphByEdges(keep func(edgeID int) bool) *Graph {
	kept := make([]Edge, 0, len(g.edges))
	for id, e := range g.edges {
		if keep(id) {
			kept = append(kept, e)
		}
	}
	// g.edges is sorted by (U,V), so the filtered list already is too.
	return fromEdges(g.n, kept)
}

// FromEdgeList builds a graph on n vertices from an explicit edge list.
// It is a convenience for tests.
func FromEdgeList(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Graph()
}
