package graph

// BFS runs a breadth-first search from src and returns the distance and
// parent arrays. Unreachable vertices have dist = -1 and parent = -1;
// src has parent -1.
func BFS(g *Graph, src int) (dist, parent []int32) {
	dist = make([]int32, g.n)
	parent = make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return dist, parent
}

// IsConnected reports whether g is connected. The empty graph counts as
// connected.
func IsConnected(g *Graph) bool {
	if g.n == 0 {
		return true
	}
	dist, _ := BFS(g, 0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Eccentricity returns the greatest BFS distance from src, or -1 if the
// graph is disconnected from src.
func Eccentricity(g *Graph, src int) int {
	dist, _ := BFS(g, src)
	ecc := int32(0)
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Diameter returns the exact diameter via all-pairs BFS (O(nm)); it
// returns -1 for disconnected graphs. Intended for the modest sizes used
// in tests and experiment calibration.
func Diameter(g *Graph) int {
	diam := 0
	for s := 0; s < g.n; s++ {
		e := Eccentricity(g, s)
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// ApproxDiameter returns a value D' with Diameter <= D' <= 2*Diameter in
// O(m) time: twice the eccentricity of an arbitrary vertex, refined by a
// double sweep. Returns -1 for disconnected graphs. This mirrors the
// paper's assumption (Section 2) that nodes know a 2-approximation of D.
func ApproxDiameter(g *Graph) int {
	if g.n == 0 {
		return 0
	}
	dist, _ := BFS(g, 0)
	far, ecc := 0, int32(0)
	for v, d := range dist {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc, far = d, v
		}
	}
	// Double sweep: eccentricity of the farthest vertex is a lower bound
	// and at most the true diameter; 2x is a valid upper bound.
	e2 := Eccentricity(g, far)
	if e2 < 0 {
		return -1
	}
	return 2 * e2
}

// BFSRestricted runs BFS from src but only traverses vertices for which
// allowed reports true (src must be allowed). It is the primitive behind
// class-restricted component identification.
func BFSRestricted(g *Graph, src int, allowed func(v int) bool) (dist []int32) {
	dist = make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if !allowed(src) {
		return dist
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 && allowed(int(v)) {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
