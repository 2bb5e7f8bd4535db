// Package dist implements the distributed primitives the packing
// protocols compose: Theorem B.2's restricted-flooding component
// identification (ComponentMinRunner) and a Borůvka-phase minimum
// spanning tree over the simulator (MST), the stand-in for Kutten–Peleg
// that docs/ARCHITECTURE.md documents ("Substitutions", item 2).
//
// Both primitives run real sim.Engine phases so their cost lands on the
// caller's meter in the paper's units; the driver-side glue (collecting
// per-component winners, termination detection) is charged explicitly as
// convergecast rounds, matching the accounting style of the rest of the
// repo. Callers that run many floods or MSTs over one topology (the
// distributed tester's per-class floods, the MWU loop of the
// spanning-tree packing) hold a ComponentMinRunner or an MSTRunner,
// which reuses one engine and all per-node protocol state across calls.
package dist

import (
	"fmt"
	"sort"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Pair is a lexicographically ordered value flooded by ComponentMin:
// the component minimum of (A, B) with A compared first.
type Pair struct {
	A, B int64
}

// Less reports whether p precedes q in lexicographic order.
func (p Pair) Less(q Pair) bool {
	if p.A != q.A {
		return p.A < q.A
	}
	return p.B < q.B
}

const (
	kindMin  = 40
	kindComp = 41
)

// session reuses one engine and the per-node protocol state across the
// phases a primitive composes over a fixed (graph, model) pair.
type session struct {
	g     *graph.Graph
	model sim.Model
	eng   *sim.Engine

	minNodes []*minFloodNode
	minProcs []sim.Process
	annNodes []*announceNode
	annProcs []sim.Process
}

// run executes one phase over the given processes, reusing the session
// engine. Options are re-applied on each run.
func (s *session) run(procs []sim.Process, maxRounds int, opts ...sim.Option) (sim.Meter, error) {
	var meter sim.Meter
	if s.eng == nil {
		eng, err := sim.NewEngine(s.g, s.model, procs, opts...)
		if err != nil {
			return meter, err
		}
		s.eng = eng
	} else if err := s.eng.Reset(procs, opts...); err != nil {
		return meter, err
	}
	if err := s.eng.RunPhase(maxRounds); err != nil {
		return meter, err
	}
	return *s.eng.Meter(), nil
}

// ComponentMinRunner floods component minima over a fixed (graph,
// model) pair, reusing one engine, all per-node protocol state and one
// output buffer between calls.
type ComponentMinRunner struct {
	s   *session
	out []Pair
}

// NewComponentMinRunner returns a runner for g under the given model.
func NewComponentMinRunner(g *graph.Graph, model sim.Model) *ComponentMinRunner {
	return &ComponentMinRunner{s: &session{g: g, model: model}, out: make([]Pair, g.N())}
}

// ComponentMin computes, for every node, the minimum Pair held by any
// node in its component of the subgraph formed by the edges with
// edgeOK[id] true (Theorem B.2 restricted flooding: messages only merge
// across allowed edges). Nodes in no allowed edge keep their own value.
// The returned meter covers the flooding phase. The returned slice is
// the runner's output buffer, overwritten by the next call.
func (r *ComponentMinRunner) ComponentMin(edgeOK []bool, values []Pair) ([]Pair, sim.Meter, error) {
	m, err := r.s.componentMin(edgeOK, values, r.out, 2*r.s.g.N()+16)
	return r.out, m, err
}

// componentMin floods into out (length n), reusing session state.
func (s *session) componentMin(edgeOK []bool, values []Pair, out []Pair, maxRounds int) (sim.Meter, error) {
	g := s.g
	n := g.N()
	var meter sim.Meter
	if len(values) != n {
		return meter, fmt.Errorf("dist: %d values for %d nodes", len(values), n)
	}
	if len(edgeOK) != g.M() {
		return meter, fmt.Errorf("dist: %d edge flags for %d edges", len(edgeOK), g.M())
	}
	if s.minNodes == nil {
		s.minNodes = make([]*minFloodNode, n)
		s.minProcs = make([]sim.Process, n)
		allowedBacking := make([]bool, 2*g.M())
		pos := 0
		for v := 0; v < n; v++ {
			k := g.Degree(v)
			s.minNodes[v] = &minFloodNode{allowed: allowedBacking[pos : pos+k : pos+k]}
			s.minProcs[v] = s.minNodes[v]
			pos += k
		}
	}
	for v := 0; v < n; v++ {
		nd := s.minNodes[v]
		nd.val = values[v]
		nd.started = false
		nd.active = false
		for i, e := range g.IncidentEdges(v) {
			nd.allowed[i] = edgeOK[e]
			nd.active = nd.active || nd.allowed[i]
		}
	}
	meter, err := s.run(s.minProcs, maxRounds, sim.WithMaxFieldBits(pairFieldBits(g, values)))
	if err != nil {
		return meter, fmt.Errorf("dist: component flooding: %w", err)
	}
	for v := 0; v < n; v++ {
		out[v] = s.minNodes[v].val
	}
	return meter, nil
}

// minFloodNode floods the minimum Pair over allowed incident edges.
type minFloodNode struct {
	val     Pair
	allowed []bool // indexed by port, parallel to g.Neighbors(v)
	active  bool   // has at least one allowed edge
	started bool
}

func (p *minFloodNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	dirty := false
	if !p.started {
		p.started = true
		dirty = p.active
	}
	for d := range inbox.All() {
		if d.Msg.Kind != kindMin || !p.allowed[d.Port] {
			continue
		}
		q := Pair{A: d.Msg.F[0], B: d.Msg.F[1]}
		if q.Less(p.val) {
			p.val = q
			dirty = true
		}
	}
	if dirty {
		ctx.Broadcast(sim.Msg(kindMin, p.val.A, p.val.B))
		return sim.Active
	}
	return sim.Done
}

// pairFieldBits sizes the message field budget so every initial Pair
// fits; flooding only ever forwards initial values, so that bound holds
// for the whole phase. The budget never drops below the engine default.
func pairFieldBits(g *graph.Graph, values []Pair) int {
	need := sim.DefaultMaxFieldBits(g.N())
	for _, p := range values {
		if b := sim.FieldBits(p.A); b > need {
			need = b
		}
		if b := sim.FieldBits(p.B); b > need {
			need = b
		}
	}
	return need
}

// MSTRunner computes minimum spanning forests over a fixed (graph,
// model) pair, reusing one engine, all per-node protocol state, the
// union-find and the output buffer between calls. The MWU loop of the
// spanning-tree packing calls MST once per iteration, so this reuse is
// what keeps the hot path free of per-iteration allocation.
type MSTRunner struct {
	s        *session
	diam     int // ApproxD of the graph: the charge of one convergecast
	inForest []bool
	idVals   []Pair
	cids     []Pair
	cands    []Pair
	best     []Pair
	uf       *ds.UnionFind
	chosen   []int
}

// NewMSTRunner returns a runner for g under the given model.
func NewMSTRunner(g *graph.Graph, model sim.Model) *MSTRunner {
	n := g.N()
	return &MSTRunner{
		s:        &session{g: g, model: model},
		diam:     ApproxD(g),
		inForest: make([]bool, g.M()),
		idVals:   make([]Pair, n),
		cids:     make([]Pair, n),
		cands:    make([]Pair, n),
		best:     make([]Pair, n),
		uf:       ds.NewUnionFind(n),
		chosen:   make([]int, 0, max(n-1, 0)),
	}
}

// MST computes the minimum spanning forest of g under the given integer
// edge weights by Borůvka phases over the simulator: each phase
// identifies components (restricted flooding over the forest so far),
// announces component ids to neighbors, floods each component's minimum
// outgoing edge, and merges. Ties break by edge id, so the result is the
// unique forest that mst.Kruskal picks under the same order. maxRounds
// bounds the rounds of each flooding phase; <= 0 selects the default
// budget. The meter accumulates all phases plus one termination-
// detection convergecast charge (diameter) per Borůvka phase.
func MST(g *graph.Graph, model sim.Model, weights []int64, maxRounds int) ([]int, sim.Meter, error) {
	return NewMSTRunner(g, model).MST(weights, maxRounds)
}

// MST runs one minimum-spanning-forest computation; see the package
// function of the same name. The returned slice is the runner's output
// buffer, valid until the next call.
func (r *MSTRunner) MST(weights []int64, maxRounds int) ([]int, sim.Meter, error) {
	g := r.s.g
	n, m := g.N(), g.M()
	var meter sim.Meter
	if len(weights) != m {
		return nil, meter, fmt.Errorf("dist: %d weights for %d edges", len(weights), m)
	}
	if maxRounds <= 0 {
		maxRounds = 2*n + 16
	}
	maxW := int64(0)
	for _, w := range weights {
		if w < 0 {
			return nil, meter, fmt.Errorf("dist: negative edge weight %d", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	sentinel := Pair{A: maxW + 1, B: int64(m)}

	inForest := r.inForest
	for i := range inForest {
		inForest[i] = false
	}
	chosen := r.chosen[:0]
	uf := r.uf
	uf.Reset()
	comps := n

	// Each phase at least halves the component count.
	for phase := 0; comps > 1; phase++ {
		if phase > ceilLog2(n)+1 {
			return nil, meter, fmt.Errorf("dist: Borůvka did not converge in %d phases", phase)
		}
		// Component identification over the forest edges (Theorem B.2).
		for v := range r.idVals {
			r.idVals[v] = Pair{A: int64(v)}
		}
		fm, err := r.s.componentMin(inForest, r.idVals, r.cids, maxRounds)
		if err != nil {
			return nil, meter, err
		}
		meter.Add(&fm)

		// Neighbor announcements: every node learns each neighbor's
		// component id and picks its lightest outgoing incident edge.
		am, err := r.s.outgoingCandidates(weights, r.cids, r.cands, sentinel)
		if err != nil {
			return nil, meter, err
		}
		meter.Add(&am)

		// Component-wide minimum of the candidates.
		bm, err := r.s.componentMin(inForest, r.cands, r.best, maxRounds)
		if err != nil {
			return nil, meter, err
		}
		meter.Add(&bm)

		// Driver glue: merge the winners (each component's members learn
		// the winner via the flood; adding the edge is local). Charged as
		// one convergecast for termination detection.
		meter.Charge(r.diam)
		progress := false
		for v := 0; v < n; v++ {
			b := r.best[v]
			if b.B >= int64(m) || b.A > maxW { // sentinel: no outgoing edge
				continue
			}
			e := int(b.B)
			if inForest[e] {
				continue
			}
			u, w := g.Endpoints(e)
			if !uf.Union(u, w) {
				continue
			}
			inForest[e] = true
			chosen = append(chosen, e)
			comps--
			progress = true
		}
		if !progress {
			break // disconnected graph: spanning forest is complete
		}
	}
	sort.Ints(chosen)
	r.chosen = chosen
	return chosen, meter, nil
}

// outgoingCandidates runs the two-round announcement protocol: every
// node broadcasts its component id, then selects its minimum-weight
// incident edge leaving the component (ties by edge id).
func (s *session) outgoingCandidates(weights []int64, cids, out []Pair, sentinel Pair) (sim.Meter, error) {
	g := s.g
	n := g.N()
	var meter sim.Meter
	if s.annNodes == nil {
		s.annNodes = make([]*announceNode, n)
		s.annProcs = make([]sim.Process, n)
		for v := 0; v < n; v++ {
			s.annNodes[v] = &announceNode{eids: g.IncidentEdges(v)}
			s.annProcs[v] = s.annNodes[v]
		}
	}
	for v := 0; v < n; v++ {
		nd := s.annNodes[v]
		nd.cid = cids[v].A
		nd.weights = weights
		nd.best = sentinel
	}
	bits := sim.DefaultMaxFieldBits(n)
	if b := sim.FieldBits(sentinel.A); b > bits {
		bits = b
	}
	meter, err := s.run(s.annProcs, 4, sim.WithMaxFieldBits(bits))
	if err != nil {
		return meter, fmt.Errorf("dist: announcement phase: %w", err)
	}
	for v := 0; v < n; v++ {
		out[v] = s.annNodes[v].best
	}
	return meter, nil
}

// announceNode broadcasts its component id, then selects the lightest
// incident edge whose other endpoint announced a different component
// (ties by edge id) — all node-local knowledge.
type announceNode struct {
	cid     int64
	eids    []int32 // incident edge ids, indexed by port
	weights []int64 // global weight table indexed by edge id (node reads only incident entries)
	best    Pair
}

func (p *announceNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	switch ctx.PhaseRound() {
	case 0:
		ctx.Broadcast(sim.Msg(kindComp, p.cid))
		return sim.Active
	case 1:
		for d := range inbox.All() {
			if d.Msg.Kind != kindComp || d.Msg.F[0] == p.cid {
				continue
			}
			e := p.eids[d.Port]
			cand := Pair{A: p.weights[e], B: int64(e)}
			if cand.Less(p.best) {
				p.best = cand
			}
		}
	}
	return sim.Done
}

// ApproxD is the diameter bound the distributed drivers charge for a
// BFS-tree pass over g: graph.ApproxDiameter, or n when that is below 1
// (a disconnected or one-vertex graph).
func ApproxD(g *graph.Graph) int {
	d := graph.ApproxDiameter(g)
	if d < 1 {
		d = g.N()
	}
	return d
}

func ceilLog2(x int) int {
	b := 0
	for v := 1; v < x; v <<= 1 {
		b++
	}
	return b
}
