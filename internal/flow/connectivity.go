package flow

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// EdgeConnectivity returns the exact global edge connectivity λ(G), or 0
// for disconnected or single-vertex graphs. It rests on Matula's lemma:
// in a simple graph with λ < δ, each side S of a minimum cut has a vertex
// whose whole neighbourhood lies in S (otherwise the cut would have at
// least |S|·max(1, δ-|S|+1) >= δ edges), so every dominating set D has a
// vertex on both sides. For any d₀ ∈ D, then,
//
//	λ = min(δ, min over d ∈ D of λ(d₀, d)),
//
// which takes |D|-1 max-flows instead of n-1. graph.Graph is always
// simple, so the lemma applies. D comes from dominatingSet; all flows
// share one network whose capacities are restored by copy before each,
// and each flow stops at the best cut found so far.
func EdgeConnectivity(g *graph.Graph) int {
	if g.N() <= 1 {
		return 0
	}
	best := g.MinDegree()
	dom := dominatingSet(g)
	if best == 0 || len(dom) < 2 {
		return best
	}
	f := NewNetwork(g.N())
	for _, e := range g.Edges() {
		f.AddEdge(int(e.U), int(e.V))
	}
	caps := slices.Clone(f.cap)
	for _, d := range dom[1:] {
		copy(f.cap, caps)
		if c := f.MaxFlowAtMost(int(dom[0]), int(d), best); c < best {
			if best = c; best == 0 {
				break
			}
		}
	}
	return best
}

// dominatingSet returns a dominating set of g, built by the max-coverage
// greedy: repeatedly take the vertex whose closed neighbourhood covers
// the most still-uncovered vertices, lowest id on ties. Gains only fall,
// so each vertex waits in the bucket of its last known gain and is
// re-filed lazily when its bucket is reached and the gain has dropped.
// Updating gains costs O(n + m); sorting each bucket as its level is
// reached puts re-filed vertices back in id order.
func dominatingSet(g *graph.Graph) []int32 {
	n := g.N()
	gain := make([]int32, n) // uncovered vertices in the closed neighbourhood
	top := int32(0)
	for v := range gain {
		gain[v] = int32(g.Degree(v) + 1)
		top = max(top, gain[v])
	}
	buckets := make([][]int32, top+1)
	for v, gv := range gain {
		buckets[gv] = append(buckets[gv], int32(v))
	}
	covered := make([]bool, n)
	uncovered := n
	cover := func(u int32) {
		if covered[u] {
			return
		}
		covered[u] = true
		uncovered--
		gain[u]--
		for _, w := range g.Neighbors(int(u)) {
			gain[w]--
		}
	}
	var dom []int32
	for level := top; level > 0 && uncovered > 0; level-- {
		bucket := buckets[level]
		slices.Sort(bucket)
		for _, v := range bucket {
			switch gv := gain[v]; {
			case gv == level:
				dom = append(dom, v)
				cover(v)
				for _, u := range g.Neighbors(int(v)) {
					cover(u)
				}
			case gv > 0:
				buckets[gv] = append(buckets[gv], v)
			}
		}
		buckets[level] = nil
	}
	return dom
}

// LocalVertexConnectivity returns κ(s,t): the maximum number of
// internally vertex-disjoint s-t paths, for non-adjacent s != t. It
// returns an error for adjacent or equal endpoints, where κ(s,t) is
// undefined in Menger form.
func LocalVertexConnectivity(g *graph.Graph, s, t int) (int, error) {
	if s == t {
		return 0, fmt.Errorf("flow: κ(s,t) undefined for s == t")
	}
	if g.HasEdge(s, t) {
		return 0, fmt.Errorf("flow: κ(%d,%d) undefined for adjacent endpoints", s, t)
	}
	return localVertexConnectivityAtMost(g, s, t, int(unbounded)), nil
}

// localVertexConnectivityAtMost computes min(κ(s,t), limit) via the
// standard vertex-splitting reduction: v becomes v_in -> v_out with
// capacity 1 (unbounded for s and t), and each undirected edge {u,v}
// becomes u_out -> v_in and v_out -> u_in with unbounded capacity.
func localVertexConnectivityAtMost(g *graph.Graph, s, t, limit int) int {
	n := g.N()
	inOf := func(v int) int { return 2 * v }
	outOf := func(v int) int { return 2*v + 1 }
	f := NewNetwork(2 * n)
	for v := 0; v < n; v++ {
		c := int32(1)
		if v == s || v == t {
			c = unbounded
		}
		f.AddArc(inOf(v), outOf(v), c)
	}
	for _, e := range g.Edges() {
		u, v := int(e.U), int(e.V)
		f.AddArc(outOf(u), inOf(v), unbounded)
		f.AddArc(outOf(v), inOf(u), unbounded)
	}
	return f.MaxFlowAtMost(outOf(s), inOf(t), limit)
}

// VertexConnectivity returns the exact vertex connectivity κ(G) using
// Even's reduction: fix a minimum-degree vertex x; then
//
//	κ(G) = min( κ(x,t) over t non-adjacent to x,
//	            κ(u,v) over non-adjacent pairs u,v ∈ N(x) ),
//
// or n-1 when the graph is complete. Correctness: a minimum cut S either
// misses x (then the far side is non-adjacent to x) or contains x (then
// x has neighbors on both sides, which are non-adjacent to each other).
// It returns 0 for disconnected graphs.
func VertexConnectivity(g *graph.Graph) int {
	n := g.N()
	if n <= 1 {
		return 0
	}
	if !graph.IsConnected(g) {
		return 0
	}
	x := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) < g.Degree(x) {
			x = v
		}
	}
	best := g.Degree(x) // κ <= δ
	sawNonAdjacent := false
	for t := 0; t < n && best > 0; t++ {
		if t == x || g.HasEdge(x, t) {
			continue
		}
		sawNonAdjacent = true
		if c := localVertexConnectivityAtMost(g, x, t, best); c < best {
			best = c
		}
	}
	nbrs := g.Neighbors(x)
	for i := 0; i < len(nbrs) && best > 0; i++ {
		for j := i + 1; j < len(nbrs) && best > 0; j++ {
			u, v := int(nbrs[i]), int(nbrs[j])
			if g.HasEdge(u, v) {
				continue
			}
			sawNonAdjacent = true
			if c := localVertexConnectivityAtMost(g, u, v, best); c < best {
				best = c
			}
		}
	}
	if !sawNonAdjacent {
		// No non-adjacent pair seen from x. If the whole graph is
		// complete κ = n-1; otherwise fall back to scanning all pairs
		// (x's closed neighborhood was a clique but the graph is not).
		complete := g.M() == n*(n-1)/2
		if complete {
			return n - 1
		}
		for u := 0; u < n && best > 0; u++ {
			for v := u + 1; v < n && best > 0; v++ {
				if g.HasEdge(u, v) {
					continue
				}
				if c := localVertexConnectivityAtMost(g, u, v, best); c < best {
					best = c
				}
			}
		}
	}
	return best
}
