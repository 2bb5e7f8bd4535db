// Package dist implements the distributed primitives the packing
// protocols compose over the simulator: MinFlood, Theorem B.2's
// restricted flooding of per-class minima, and a Borůvka-phase minimum
// spanning tree (MST), the stand-in for Kutten–Peleg that
// docs/ARCHITECTURE.md documents ("Substitutions", item 2).
//
// MinFlood is one process, run for every class of every node in one
// phase on its caller's engine: cdsdist floods component ids,
// deactivation and the best proposal through it, and the Appendix E
// tester its classes' component ids. A message names its class, and a
// node finds the class's state through its class row with ds.Index.
// MST runs real sim.Engine phases so its cost lands on the caller's
// meter in the paper's units; the driver-side glue (collecting
// per-component winners, termination detection) is charged explicitly
// as convergecast rounds, matching the accounting style of the rest of
// the repo. Its component identification floods one value per node
// over an edge mask of the forest so far, a flood private to Borůvka.
// The MWU loop of the spanning-tree packing holds an MSTRunner, which
// reuses one engine and all per-node protocol state across calls.
package dist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Pair is a lexicographically ordered flood value: the minimum of
// (A, B) with A compared first.
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

// NoValue is the MinFlood value of a class that holds no seed: every
// value a flood carries is smaller, and none is sent for it.
var NoValue = Pair{A: math.MaxInt64, B: math.MaxInt64}

const (
	kindMin  = 40
	kindComp = 41
)

// MinFlood is Theorem B.2's restricted flooding at one node, run for
// every class the node holds at once. Per class it keeps the least
// Pair seen, sends every seed other than NoValue in its first round,
// and resends a class whenever a strictly smaller value arrives for it.
// A message (Kind; class, A, B) merges only at nodes that hold its
// class, so class-c values cross exactly the edges of class-c
// components, and each component ends holding its least seed.
// Min-merging is order-insensitive, so the ascending send order leaves
// results identical to any other. A caller sets the exported fields
// before each phase; the zero value of the rest starts it. The flood
// only forwards seeds, so an engine field budget that admits every seed
// and class id admits the whole phase.
type MinFlood struct {
	Kind  uint8    // the kind of the flood's messages
	Cls   []int32  // the node's classes, ascending
	Row   []uint64 // the class row of Cls: bit c is set iff c is in Cls
	Val   []Pair   // parallel to Cls: the seeds, then the least values seen
	Dirty []bool   // parallel to Cls, all false: the flood's scratch

	hasDirty bool
	started  bool
}

func (p *MinFlood) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	if !p.started {
		p.started = true
		for i, x := range p.Val {
			if x != NoValue {
				p.Dirty[i] = true
				p.hasDirty = true
			}
		}
	}
	for d := range inbox.All() {
		if d.Msg.Kind != p.Kind {
			continue
		}
		i := ds.Index(p.Row, int32(d.Msg.F[0]))
		if i < 0 {
			continue
		}
		if x := (Pair{A: d.Msg.F[1], B: d.Msg.F[2]}); x.Less(p.Val[i]) {
			p.Val[i] = x
			p.Dirty[i] = true
			p.hasDirty = true
		}
	}
	if !p.hasDirty {
		return sim.Done
	}
	for i, c := range p.Cls {
		if p.Dirty[i] {
			ctx.Broadcast(sim.Msg(p.Kind, int64(c), p.Val[i].A, p.Val[i].B))
			p.Dirty[i] = false
		}
	}
	p.hasDirty = false
	return sim.Active
}

// edgeFloodNode floods the minimum Pair over allowed incident edges:
// Borůvka's component identification over the forest so far.
type edgeFloodNode struct {
	val     Pair
	allowed []bool // indexed by port, parallel to g.Neighbors(v)
	active  bool   // has at least one allowed edge
	started bool
}

func (p *edgeFloodNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
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
	g        *graph.Graph
	model    sim.Model
	eng      *sim.Engine // built at the first phase, reset for every later one
	diam     int         // ApproxD of the graph: the charge of one convergecast
	floods   []edgeFloodNode
	anns     []announceNode
	procs    []sim.Process
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
	r := &MSTRunner{
		g:        g,
		model:    model,
		diam:     ApproxD(g),
		floods:   make([]edgeFloodNode, n),
		anns:     make([]announceNode, n),
		procs:    make([]sim.Process, n),
		inForest: make([]bool, g.M()),
		idVals:   make([]Pair, n),
		cids:     make([]Pair, n),
		cands:    make([]Pair, n),
		best:     make([]Pair, n),
		uf:       ds.NewUnionFind(n),
		chosen:   make([]int, 0, max(n-1, 0)),
	}
	allowed := make([]bool, 2*g.M())
	for v := range r.floods {
		k := g.Degree(v)
		r.floods[v].allowed, allowed = allowed[:k:k], allowed[k:]
		r.anns[v].eids = g.IncidentEdges(v)
	}
	return r
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
	g := r.g
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
		fm, err := r.componentMin(inForest, r.idVals, r.cids, maxRounds)
		if err != nil {
			return nil, meter, err
		}
		meter.Add(&fm)

		// Neighbor announcements: every node learns each neighbor's
		// component id and picks its lightest outgoing incident edge.
		am, err := r.outgoingCandidates(weights, r.cids, r.cands, sentinel)
		if err != nil {
			return nil, meter, err
		}
		meter.Add(&am)

		// Component-wide minimum of the candidates.
		bm, err := r.componentMin(inForest, r.cands, r.best, maxRounds)
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

// componentMin computes into out, for every node, the minimum Pair
// held by any node in its component of the subgraph formed by the
// edges with edgeOK[id] true (Theorem B.2 restricted flooding: values
// merge only across allowed edges). A node in no allowed edge keeps its
// own value. The returned meter covers the flooding phase.
func (r *MSTRunner) componentMin(edgeOK []bool, values, out []Pair, maxRounds int) (sim.Meter, error) {
	for v := range r.floods {
		nd := &r.floods[v]
		nd.val, nd.started, nd.active = values[v], false, false
		for i, e := range r.g.IncidentEdges(v) {
			nd.allowed[i] = edgeOK[e]
			nd.active = nd.active || nd.allowed[i]
		}
		r.procs[v] = nd
	}
	meter, err := r.run(maxRounds, sim.WithMaxFieldBits(pairFieldBits(r.g, values)))
	if err != nil {
		return meter, fmt.Errorf("dist: component flooding: %w", err)
	}
	for v := range out {
		out[v] = r.floods[v].val
	}
	return meter, nil
}

// outgoingCandidates runs the two-round announcement protocol: every
// node broadcasts its component id, then selects its minimum-weight
// incident edge leaving the component (ties by edge id).
func (r *MSTRunner) outgoingCandidates(weights []int64, cids, out []Pair, sentinel Pair) (sim.Meter, error) {
	for v := range r.anns {
		nd := &r.anns[v]
		nd.cid = cids[v].A
		nd.weights = weights
		nd.best = sentinel
		r.procs[v] = nd
	}
	bits := sim.DefaultMaxFieldBits(r.g.N())
	if b := sim.FieldBits(sentinel.A); b > bits {
		bits = b
	}
	meter, err := r.run(4, sim.WithMaxFieldBits(bits))
	if err != nil {
		return meter, fmt.Errorf("dist: announcement phase: %w", err)
	}
	for v := range out {
		out[v] = r.anns[v].best
	}
	return meter, nil
}

// run executes one phase of the processes in r.procs on the runner's
// engine and returns its meter. Options are re-applied on each run.
func (r *MSTRunner) run(maxRounds int, opts ...sim.Option) (sim.Meter, error) {
	if r.eng == nil {
		eng, err := sim.NewEngine(r.g, r.model, r.procs, opts...)
		if err != nil {
			return sim.Meter{}, err
		}
		r.eng = eng
	} else if err := r.eng.Reset(r.procs, opts...); err != nil {
		return sim.Meter{}, err
	}
	if err := r.eng.RunPhase(maxRounds); err != nil {
		return sim.Meter{}, err
	}
	return *r.eng.Meter(), nil
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
