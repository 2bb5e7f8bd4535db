// Package lower builds the lower-bound graph family of Appendix G and
// the measurement harness around it.
//
// H(X,Y) consists of h+1 paths of 2ℓ heavy nodes, a set-disjointness
// gadget at both ends (u_x and v_y connector nodes), and two hub nodes a
// and b keeping the diameter at 3. G(X,Y) replaces each heavy node by a
// w-clique and each edge by a complete bipartite graph. Lemma G.4: if
// X∩Y = {z}, the vertex connectivity is exactly 4 (cut {a, b, u_z,
// v_z}); if X and Y are disjoint, it is at least w.
//
// The two-party reduction (Lemma G.6) bounds the bits a T-round protocol
// moves across the Alice/Bob boundary by 2BT; CutBits meters exactly
// that quantity for live protocol runs via the simulator's delivery
// observer.
package lower

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Params sizes the construction.
type Params struct {
	H int // number of gadget paths is H+1; universe size for X, Y
	L int // half path length: each path has 2L heavy nodes
	W int // heavy node weight (clique size in G(X,Y))
}

// Instance is a constructed G(X,Y) with the vertex roles needed by the
// experiments.
type Instance struct {
	G *graph.Graph
	// A and B are the hub nodes.
	A, B int
	// UNodes[x] is the u_x connector (present iff x ∈ X); VNodes likewise.
	UNodes, VNodes map[int]int
	// CliqueOf[p][q] lists the w vertices of heavy node (p,q),
	// p ∈ [0,H], q ∈ [0, 2L).
	CliqueOf [][][]int
	// LeftOf reports Alice's side V'_A(0): everything except the
	// right-end gadget; RightOf is Bob's V'_B(0).
	LeftOf, RightOf []bool
	Params          Params
	X, Y            map[int]bool
}

// Build constructs G(X,Y). X and Y are subsets of {0,…,H-1}.
func Build(p Params, x, y []int) (*Instance, error) {
	if p.H < 2 || p.L < 1 || p.W < 1 {
		return nil, fmt.Errorf("lower: bad params %+v", p)
	}
	xs := map[int]bool{}
	for _, e := range x {
		if e < 0 || e >= p.H {
			return nil, fmt.Errorf("lower: X element %d outside [0,%d)", e, p.H)
		}
		xs[e] = true
	}
	ys := map[int]bool{}
	for _, e := range y {
		if e < 0 || e >= p.H {
			return nil, fmt.Errorf("lower: Y element %d outside [0,%d)", e, p.H)
		}
		ys[e] = true
	}

	// Vertex layout: cliques for heavy nodes (p,q), then a, b, u_x, v_y.
	paths := p.H + 1
	next := 0
	cliqueOf := make([][][]int, paths)
	for pi := 0; pi < paths; pi++ {
		cliqueOf[pi] = make([][]int, 2*p.L)
		for q := 0; q < 2*p.L; q++ {
			ids := make([]int, p.W)
			for i := range ids {
				ids[i] = next
				next++
			}
			cliqueOf[pi][q] = ids
		}
	}
	a := next
	b := next + 1
	next += 2
	uNodes := map[int]int{}
	for e := range xs {
		uNodes[e] = next
		next++
	}
	vNodes := map[int]int{}
	for e := range ys {
		vNodes[e] = next
		next++
	}

	bld := graph.NewBuilder(next)
	cliqueEdges := func(ids []int) {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				bld.AddEdge(ids[i], ids[j])
			}
		}
	}
	biclique := func(as, bs []int) {
		for _, u := range as {
			for _, v := range bs {
				bld.AddEdge(u, v)
			}
		}
	}
	single := func(v int) []int { return []int{v} }

	// Heavy cliques and path edges.
	for pi := 0; pi < paths; pi++ {
		for q := 0; q < 2*p.L; q++ {
			cliqueEdges(cliqueOf[pi][q])
			if q+1 < 2*p.L {
				biclique(cliqueOf[pi][q], cliqueOf[pi][q+1])
			}
		}
	}
	// Set gadget, left side: path 0's first clique connects to path x's
	// first clique, through u_x when x ∈ X, directly otherwise.
	for xi := 1; xi <= p.H; xi++ {
		elem := xi - 1
		if xs[elem] {
			u := uNodes[elem]
			biclique(single(u), cliqueOf[0][0])
			biclique(single(u), cliqueOf[xi][0])
		} else {
			biclique(cliqueOf[0][0], cliqueOf[xi][0])
		}
	}
	// Right side with Y.
	for yi := 1; yi <= p.H; yi++ {
		elem := yi - 1
		if ys[elem] {
			v := vNodes[elem]
			biclique(single(v), cliqueOf[0][2*p.L-1])
			biclique(single(v), cliqueOf[yi][2*p.L-1])
		} else {
			biclique(cliqueOf[0][2*p.L-1], cliqueOf[yi][2*p.L-1])
		}
	}
	// Hubs: a serves the left half (q < L) and the u nodes; b the rest.
	bld.AddEdge(a, b)
	for pi := 0; pi < paths; pi++ {
		for q := 0; q < 2*p.L; q++ {
			hub := a
			if q >= p.L {
				hub = b
			}
			biclique(single(hub), cliqueOf[pi][q])
		}
	}
	for _, u := range uNodes {
		bld.AddEdge(a, u)
	}
	for _, v := range vNodes {
		bld.AddEdge(b, v)
	}

	g := bld.Graph()
	inst := &Instance{
		G: g, A: a, B: b,
		UNodes: uNodes, VNodes: vNodes,
		CliqueOf: cliqueOf,
		Params:   p, X: xs, Y: ys,
		LeftOf:  make([]bool, g.N()),
		RightOf: make([]bool, g.N()),
	}
	// Alice knows V'_A(0) = {a} ∪ U ∪ cliques with q < 2L-0... following
	// Lemma G.5: V_A(r) excludes the rightmost r+1 columns; V_A(0) is
	// everything but the last column, V_B(0) everything but the first.
	for pi := 0; pi < paths; pi++ {
		for q := 0; q < 2*p.L; q++ {
			for _, id := range cliqueOf[pi][q] {
				if q < 2*p.L-1 {
					inst.LeftOf[id] = true
				}
				if q > 0 {
					inst.RightOf[id] = true
				}
			}
		}
	}
	inst.LeftOf[a] = true
	inst.RightOf[b] = true
	for _, u := range uNodes {
		inst.LeftOf[u] = true
	}
	for _, v := range vNodes {
		inst.RightOf[v] = true
	}
	return inst, nil
}

// MinCutUpper returns the Lemma G.4 prediction for the instance: 4 when
// |X∩Y| = 1, and W when X∩Y = ∅ (the true connectivity is >= W then;
// min degree makes it exactly related to the gadget). Returns an error
// for |X∩Y| > 1, where the lemma gives no single value.
func (inst *Instance) MinCutUpper() (int, error) {
	common := 0
	for e := range inst.X {
		if inst.Y[e] {
			common++
		}
	}
	switch common {
	case 0:
		return inst.Params.W, nil
	case 1:
		return 4, nil
	default:
		return 0, fmt.Errorf("lower: |X∩Y| = %d > 1 not covered by Lemma G.4", common)
	}
}

// CutBits runs the given processes on the instance's graph and returns
// the bits Alice and Bob would exchange in the Lemma G.5/G.6 simulation:
// everything the hub nodes a and b transmit. In V-CONGEST each hub
// broadcast is delivered to the other hub exactly once over the a-b
// edge, so metering a<->b deliveries counts each exchanged message once;
// Lemma G.6 bounds the total by 2B·T for T-round protocols.
func (inst *Instance) CutBits(procs []sim.Process, model sim.Model, maxRounds int) (int64, sim.Meter, error) {
	var crossing int64
	a, b := int32(inst.A), int32(inst.B)
	obs := func(from, to int32, bits int) {
		if (from == a && to == b) || (from == b && to == a) {
			crossing += int64(bits)
		}
	}
	eng, err := sim.NewEngine(inst.G, model, procs, sim.WithDeliveryObserver(obs))
	if err != nil {
		return 0, sim.Meter{}, err
	}
	if err := eng.RunPhase(maxRounds); err != nil {
		return crossing, *eng.Meter(), err
	}
	return crossing, *eng.Meter(), nil
}

// DisjointnessBitsLowerBound returns the Ω(h) bits two parties must
// exchange to decide set disjointness over universe [h] ([29, 46]),
// i.e. the denominator of the Theorem G.2 round bound.
func DisjointnessBitsLowerBound(h int) int { return h }
