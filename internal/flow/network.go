// Package flow implements unit-capacity max-flow (Dinic) and exact
// vertex and edge connectivity. VertexConnectivity is the ground truth
// for the paper's approximation claims (Corollary 1.7) and for the
// generators' advertised connectivity. EdgeConnectivity also runs in
// production: the spanning-tree packers compute λ with it whenever the
// caller does not pass one, standing in for the distributed min-cut
// approximation of [21]. StoerWagner is the independent oracle the
// tests and FuzzEdgeConnectivity check EdgeConnectivity against.
package flow

// Network is a directed flow network with integer capacities stored as
// residual arc pairs: arc i and arc i^1 are each other's residuals.
type Network struct {
	n     int
	first []int32 // first[v] = index of v's first arc, -1 if none
	next  []int32 // next arc in v's list
	to    []int32
	cap   []int32

	// scratch for Dinic
	level []int32
	iter  []int32
	queue []int32
}

// NewNetwork returns an empty network on n vertices.
func NewNetwork(n int) *Network {
	f := &Network{n: n, first: make([]int32, n)}
	for i := range f.first {
		f.first[i] = -1
	}
	return f
}

// N returns the number of vertices.
func (f *Network) N() int { return f.n }

// AddArc adds a directed arc u->v with the given capacity and its
// zero-capacity residual twin. It returns the arc index.
func (f *Network) AddArc(u, v int, capacity int32) int {
	id := len(f.to)
	f.to = append(f.to, int32(v), int32(u))
	f.cap = append(f.cap, capacity, 0)
	f.next = append(f.next, f.first[u], f.first[v])
	f.first[u] = int32(id)
	f.first[v] = int32(id + 1)
	return id
}

// AddEdge adds an undirected unit edge as a symmetric pair of arcs with
// capacity 1 each, the standard encoding for edge-connectivity flows.
func (f *Network) AddEdge(u, v int) {
	f.AddArc(u, v, 1)
	f.AddArc(v, u, 1)
}

const unbounded = int32(1) << 30

// MaxFlow computes the s-t max flow with Dinic's algorithm.
func (f *Network) MaxFlow(s, t int) int {
	return f.MaxFlowAtMost(s, t, int(unbounded))
}

// MaxFlowAtMost computes min(maxflow(s,t), limit), stopping early once
// limit is reached. Connectivity searches use the early exit to avoid
// paying for flows far above the current best cut.
func (f *Network) MaxFlowAtMost(s, t, limit int) int {
	if s == t {
		return limit
	}
	total := 0
	for total < limit && f.bfs(s, t) {
		if f.iter == nil {
			f.iter = make([]int32, f.n)
		}
		copy(f.iter, f.first)
		for total < limit {
			pushed := f.dfs(s, t, unbounded)
			if pushed == 0 {
				break
			}
			total += int(pushed)
		}
	}
	if total > limit {
		total = limit
	}
	return total
}

func (f *Network) bfs(s, t int) bool {
	if f.level == nil {
		f.level = make([]int32, f.n)
		f.queue = make([]int32, 0, f.n)
	}
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	f.queue = f.queue[:0]
	f.queue = append(f.queue, int32(s))
	for head := 0; head < len(f.queue); head++ {
		u := f.queue[head]
		for a := f.first[u]; a >= 0; a = f.next[a] {
			v := f.to[a]
			if f.cap[a] > 0 && f.level[v] < 0 {
				f.level[v] = f.level[u] + 1
				f.queue = append(f.queue, v)
			}
		}
	}
	return f.level[t] >= 0
}

func (f *Network) dfs(u, t int, budget int32) int32 {
	if u == t {
		return budget
	}
	for ; f.iter[u] >= 0; f.iter[u] = f.next[f.iter[u]] {
		a := f.iter[u]
		v := f.to[a]
		if f.cap[a] <= 0 || f.level[v] != f.level[u]+1 {
			continue
		}
		send := budget
		if f.cap[a] < send {
			send = f.cap[a]
		}
		pushed := f.dfs(int(v), t, send)
		if pushed > 0 {
			f.cap[a] -= pushed
			f.cap[a^1] += pushed
			return pushed
		}
	}
	return 0
}

// MinCutSource returns the set of vertices reachable from s in the
// residual graph after a MaxFlow call — the source side of a minimum
// cut.
func (f *Network) MinCutSource(s int) []bool {
	side := make([]bool, f.n)
	queue := []int32{int32(s)}
	side[s] = true
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for a := f.first[u]; a >= 0; a = f.next[a] {
			v := f.to[a]
			if f.cap[a] > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}
