package graph

import "fmt"

// TreePool builds rooted spanning Trees directly from host-graph edge-id
// lists, reusing all scratch between calls. The spanning-tree packing's
// MWU loop materializes one Tree per distinct tree in its collection;
// routing each through a fresh Builder + Graph + BFS allocated a CSR
// graph per tree, while the pool keeps one flat adjacency workspace.
//
// Because the input edges form a tree, the rooted parent orientation is
// unique, so the result is identical to building a one-off Graph from
// the same edges and calling TreeFromBFS on it, whatever the order of
// the edge ids. Every tree the pool builds spans all n vertices, so
// all of them share one identity vertex list (Vertices is read-only).
type TreePool struct {
	head     []int32 // head[v] = first slot of v's adjacency, -1 if none
	next     []int32 // next[s] = following slot in v's list
	to       []int32 // to[s] = neighbor vertex of the slot's edge
	queue    []int32
	vertices []int32 // vertices[v] = v, shared by every tree built
}

// NewTreePool returns a pool for trees over host graphs of up to n
// vertices.
func NewTreePool(n int) *TreePool {
	p := &TreePool{
		head:     make([]int32, n),
		next:     make([]int32, 0, 2*(n-1)),
		to:       make([]int32, 0, 2*(n-1)),
		queue:    make([]int32, 0, n),
		vertices: make([]int32, n),
	}
	for i := range p.head {
		p.head[i] = -1
		p.vertices[i] = int32(i)
	}
	return p
}

// SpanningFromEdgeIDs builds the spanning tree of g rooted at root from
// exactly n-1 edge ids forming a spanning tree. It returns an error when
// the edges do not connect all of g's vertices.
func (p *TreePool) SpanningFromEdgeIDs(g *Graph, edgeIDs []int, root int) (*Tree, error) {
	n := g.N()
	if len(edgeIDs) != n-1 {
		return nil, fmt.Errorf("graph: %d edges cannot span %d vertices", len(edgeIDs), n)
	}
	if n > len(p.head) {
		return nil, fmt.Errorf("graph: pool sized for %d vertices, got %d", len(p.head), n)
	}
	p.next = p.next[:0]
	p.to = p.to[:0]
	for _, e := range edgeIDs {
		u, v := g.Endpoints(e)
		p.link(int32(u), int32(v))
		p.link(int32(v), int32(u))
	}

	t := &Tree{root: int32(root), parent: make([]int32, n), vertices: p.vertices[:n:n]}
	for i := range t.parent {
		t.parent[i] = TreeAbsent
	}
	t.parent[root] = TreeRoot
	p.queue = append(p.queue[:0], int32(root))
	visited := 1
	for head := 0; head < len(p.queue); head++ {
		u := p.queue[head]
		for s := p.head[u]; s >= 0; s = p.next[s] {
			v := p.to[s]
			if t.parent[v] == TreeAbsent {
				t.parent[v] = u
				p.queue = append(p.queue, v)
				visited++
			}
		}
	}
	for _, u := range p.queue { // reset only the touched heads
		p.head[u] = -1
	}
	if visited != n {
		// Untouched vertices keep head[v] = -1 already; the loop above
		// reset the visited ones, but vertices that got adjacency slots
		// without being reached need clearing too.
		for _, e := range edgeIDs {
			u, v := g.Endpoints(e)
			p.head[u], p.head[v] = -1, -1
		}
		return nil, fmt.Errorf("graph: edge set spans %d of %d vertices", visited, n)
	}
	return t, nil
}

func (p *TreePool) link(u, v int32) {
	p.to = append(p.to, v)
	p.next = append(p.next, p.head[u])
	p.head[u] = int32(len(p.to) - 1)
}
