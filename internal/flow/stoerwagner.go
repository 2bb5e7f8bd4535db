package flow

import "repro/internal/graph"

// StoerWagner computes the global minimum cut weight of g (with unit
// edge weights this is the edge connectivity λ). It is an independent
// O(n^3) algorithmic path, dense in n, kept only as the test oracle for
// the flow-based EdgeConnectivity; production code calls
// EdgeConnectivity. Returns 0 for graphs with fewer than two vertices or
// disconnected graphs.
func StoerWagner(g *graph.Graph) int {
	n := g.N()
	if n < 2 {
		return 0
	}
	// Weighted adjacency matrix over supernodes; merged[v] marks
	// vertices already contracted away.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, e := range g.Edges() {
		w[e.U][e.V]++
		w[e.V][e.U]++
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := int64(1) << 60
	weight := make([]int64, n)
	inA := make([]bool, n)
	for len(active) > 1 {
		// Minimum cut phase: maximum adjacency order over the active
		// supernodes.
		for _, v := range active {
			weight[v] = 0
			inA[v] = false
		}
		prev, last := -1, -1
		for range active {
			sel := -1
			for _, v := range active {
				if !inA[v] && (sel < 0 || weight[v] > weight[sel]) {
					sel = v
				}
			}
			inA[sel] = true
			prev, last = last, sel
			for _, v := range active {
				if !inA[v] {
					weight[v] += w[sel][v]
				}
			}
		}
		// Cut-of-the-phase: last supernode vs. the rest.
		if weight[last] < best {
			best = weight[last]
		}
		// Merge last into prev.
		for _, v := range active {
			if v != prev && v != last {
				w[prev][v] += w[last][v]
				w[v][prev] = w[prev][v]
			}
		}
		dst := active[:0]
		for _, v := range active {
			if v != last {
				dst = append(dst, v)
			}
		}
		active = dst
	}
	return int(best)
}
