// The reusable broadcast Scheduler handle: construction builds every
// demand-independent artifact of the congestion-model round loops once
// (per-tree port masks, membership and neighbor bitmasks, per-tree edge
// bitmasks), and Run serves an arbitrary sequence of demands with
// engine-style buffer reuse — zero allocations per Run once the buffers
// have grown to the demand size — while producing results identical,
// transmission for transmission, to a fresh Broadcast call with the same
// seed. Each model has exactly one round loop (runVertex, runEdge): Run
// drives it with no fault state, RunFaulted (fault.go) with one.
//
// The handle is split into a shared immutable core and per-handle
// mutable buffers: Clone returns a sibling handle over the same core
// with fresh buffers, so many goroutines can Run demands against one
// decomposition concurrently, each keeping the zero-steady-state-alloc
// property and producing results byte-identical to a serial run of the
// same (demand, seed).
package cast

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Scheduler is a reusable broadcast handle bound to one
// (graph, decomposition, model) triple. Construct it once with
// NewScheduler, then serve any number of demands via Run; the handle
// keeps every setup artifact and scratch buffer alive between runs, so
// steady-state serving pays only for rounds, not setup.
//
// A single Scheduler is not safe for concurrent use, but its setup
// artifacts are immutable and shared: Clone returns an independent
// handle over the same core, and any number of clones may Run
// concurrently with each other (and with the original).
type Scheduler struct {
	core *schedCore

	// Sampling state: pcg is reseeded in place per Run so the draw stream
	// is identical to a fresh ds.NewRand(seed) — hence identical across
	// clones for the same (demand, seed). RunFaulted draws its random
	// kills from it too, before reseeding it for the demand.
	pcg *rand.PCG
	rng *rand.Rand

	// Per-run demand state, grown once and reused. hasM[m*stride:...] is
	// the set of nodes holding message m (V-CONGEST always, E-CONGEST only
	// under faults).
	assign      []int32 // assign[m] = tree routing message m
	msgsPerTree []int32
	hasM        []uint64

	vb *vertexBuffers // V-CONGEST run buffers, nil in E-CONGEST
	eb *edgeBuffers   // E-CONGEST run buffers, nil in V-CONGEST

	faults *faultState // fault set of a faulted run, allocated on first RunFaulted
}

// schedCore is the demand-independent, read-only half of a Scheduler:
// everything NewScheduler computes from (graph, trees, model) and no
// Run ever mutates. Clones share one core by pointer; nothing below may
// be written after construction.
type schedCore struct {
	g     *graph.Graph
	trees []graph.WeightedTree
	model sim.Model

	// cum[i] is the total weight of trees[0..i]; total the grand sum.
	cum   []float64
	total float64

	vs *vertexCore // V-CONGEST setup artifacts, nil in E-CONGEST
	es *edgeCore   // E-CONGEST setup artifacts, nil in V-CONGEST
}

// vertexCore is the V-CONGEST scheduler's immutable setup: membership
// and adjacency bitmasks, built once per core and read by every clone.
type vertexCore struct {
	stride  int          // words per n-bit row
	member  []*ds.Bitset // member[t].Has(v): v is in tree t
	nbrMask []uint64     // nbrMask[v*stride:(v+1)*stride] = v's adjacency
}

// vertexBuffers is the V-CONGEST scheduler's per-handle run state: the
// message-major queued grid and per-node FIFOs grow to the largest
// demand served and are cleared per run.
type vertexBuffers struct {
	queuedM []uint64  // queuedM[m*stride:...] = nodes that queued m
	queues  [][]int32 // per-node FIFO storage, reused across runs
	qhead   []int32   // per-node FIFO head index into queues[v]
	vcong   []int32   // transmissions per node
	sends   []vtx     // one round's transmissions, capacity n
	// nbr is the sender rows in force: nbrMask, or liveNbr once faults
	// strike. It is a field, not a local of runVertex, because a
	// loop-carried local slowed the healthy round loop by ~15%.
	nbr []uint64
}

type vtx struct {
	v int
	m int32
}

// edgeCore is the E-CONGEST scheduler's immutable setup. A tree is one
// 32-bit port mask per vertex: bit p of tree ti's word at v is set iff
// v's p-th CSR neighbor is v's neighbor in the tree. Tree ti's words
// are masks[ti*stride : (ti+1)*stride], v's word at v; a vertex of
// degree d > 32 keeps its ports from 32 on in ⌈d/32⌉−1 extension words
// at n+extOff[v]. slotDir maps a CSR slot (v's row offset plus a port)
// to the arc from v to that neighbor, stored as its directed-edge index
// dir = 2*eid + side: the edge id is dir>>1, and heads gives the
// receiving endpoint and the edge's port there. rowOf[v] is v's CSR row
// offset, complemented (negative) when v has extension words. Per tree
// the masks take 4·Σ_v max(1, ⌈deg(v)/32⌉) bytes: 1 KB on Q8 and on
// RandomHamCycles(256,16), whose degrees stay within one word.
// treeEdges[ti] is the tree's edge set as a bitmask over edge ids. Only
// masks and treeEdges grow with the tree count; every other table is
// the graph's.
type edgeCore struct {
	n, stride      int
	ewords, awords int

	masks     []uint32 // len(trees)*stride port masks
	rowOf     []int32  // CSR row offset per vertex, ^offset past one word
	extOff    []int32  // n+1 prefix sums of extension words
	slotDir   []int32  // slotDir[s] = arc from s's row vertex to its neighbor at s
	treeEdges []uint64 // per-tree edge bitmask rows
	heads     []head   // heads[dir]: receiving endpoint of arc dir and its port there
}

// head is the receiving end of an arc: its vertex, and the arc's edge's
// port in that vertex's row.
type head struct {
	v, port int32
}

// edgeBuffers is the E-CONGEST scheduler's per-handle run state: FIFO
// layout, cursors, the activity mask, one round's pops, and congestion
// tables recomputed per demand over grown-once storage.
type edgeBuffers struct {
	vcong       []int32  // transmissions per node, counted from FIFO pops
	econg       []int32  // messages per edge, counted from FIFO pops
	qoff        []int32  // per-arc FIFO segment offsets into qbuf
	qht         []uint64 // packed (tail<<32)|head cursor per arc
	activeWords []uint64 // live-arc bitmask: arcs with a queued message
	qbuf        []int32  // flat FIFO storage, grown to the demand size
	pops        []pop    // one round's pops; 2m entries, allocated by the first run
}

// pop is one transmission of an E-CONGEST round: arc dir delivers msg
// to its head, which relays it on the arcs slotDir[row+p] for every set
// bit p of mask, its tree's port mask there less the arrival edge. A
// zero mask relays nothing (a leaf, or an absorbed copy); a negative
// row marks a head with extension words, which relays through
// enqueueTree.
type pop struct {
	dir, msg int32
	mask     uint32
	row      int32
}

// NewScheduler validates the decomposition against the model and builds
// the demand-independent scheduler state: in sim.VCongest mode the trees
// must be dominating trees; in sim.ECongest mode they must be spanning
// trees. In both, every tree edge must be an edge of g. Every tree
// weight must be positive and finite, and so must their sum.
func NewScheduler(g *graph.Graph, trees []graph.WeightedTree, model sim.Model) (*Scheduler, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("cast: no trees")
	}
	for i, t := range trees {
		// The tree pick reads the cumulative weights as a nondecreasing
		// sequence ending at a finite positive total; NaN, ±Inf or a
		// negative weight would route every message to one tree, and so
		// would weights that are all zero.
		if !(t.Weight > 0 && t.Weight <= math.MaxFloat64) {
			return nil, fmt.Errorf("cast: tree %d has weight %v; weights must be positive and finite", i, t.Weight)
		}
		// A tree built over more host vertices than g has may hold a
		// vertex g lacks; the checks below index g by its vertices.
		if vs := t.Tree.Vertices(); len(vs) > 0 && int(vs[len(vs)-1]) >= g.N() {
			return nil, fmt.Errorf("cast: tree %d: vertex %d not in the graph (%d vertices)", i, vs[len(vs)-1], g.N())
		}
		if model == sim.ECongest && !t.Tree.IsSpanning(g) {
			return nil, fmt.Errorf("cast: tree %d not spanning (required in E-CONGEST)", i)
		}
		if model == sim.VCongest {
			if !t.Tree.IsDominatingIn(g) {
				return nil, fmt.Errorf("cast: tree %d not dominating (required in V-CONGEST)", i)
			}
			if err := t.Tree.ValidateIn(g); err != nil {
				return nil, fmt.Errorf("cast: tree %d: %w", i, err)
			}
		}
	}
	core := &schedCore{
		g:     g,
		trees: trees,
		model: model,
		cum:   make([]float64, len(trees)),
	}
	for i, t := range trees {
		core.total += t.Weight
		core.cum[i] = core.total
	}
	if math.IsInf(core.total, 0) {
		return nil, fmt.Errorf("cast: tree weights sum past the float64 range")
	}
	switch model {
	case sim.VCongest:
		core.vs = newVertexCore(g, trees)
	case sim.ECongest:
		es, err := newEdgeCore(g, trees)
		if err != nil {
			return nil, err
		}
		core.es = es
	default:
		return nil, fmt.Errorf("cast: unknown model %v", model)
	}
	return newHandle(core), nil
}

// newHandle wraps a core with fresh per-handle buffers; NewScheduler
// and Clone share it so every handle starts from the same state.
func newHandle(core *schedCore) *Scheduler {
	s := &Scheduler{
		core:        core,
		pcg:         rand.NewPCG(0, 0),
		msgsPerTree: make([]int32, len(core.trees)),
	}
	s.rng = rand.New(s.pcg)
	n := core.g.N()
	if core.vs != nil {
		s.vb = &vertexBuffers{
			queues: make([][]int32, n),
			qhead:  make([]int32, n),
			vcong:  make([]int32, n),
			sends:  make([]vtx, 0, n),
		}
	}
	if core.es != nil {
		nArcs := 2 * core.g.M()
		s.eb = &edgeBuffers{
			vcong:       make([]int32, n),
			econg:       make([]int32, core.g.M()),
			qoff:        make([]int32, nArcs+1),
			qht:         make([]uint64, nArcs),
			activeWords: make([]uint64, (nArcs+63)/64),
		}
	}
	return s
}

// Clone returns an independent handle over the same immutable core:
// setup artifacts (per-tree port masks and bitmasks) are shared, run
// buffers are fresh. The clone serves Run concurrently with the
// original and with other clones, keeps the zero-steady-state-
// allocation property once warm, and produces results byte-identical to
// the original handle for the same (demand, seed). Cloning a clone is
// equivalent to cloning the original.
func (s *Scheduler) Clone() *Scheduler { return newHandle(s.core) }

// Run disseminates the demand's messages to every node by routing each
// along a randomly chosen tree of the decomposition, exactly as
// Broadcast would with the same seed, reusing the handle's buffers.
func (s *Scheduler) Run(demand Demand, seed uint64) (Result, error) {
	return s.RunContext(context.Background(), demand, seed)
}

// RunContext is Run with cooperative cancellation: the round loop
// checks ctx between rounds and returns ctx's error as soon as it is
// done, leaving the handle reusable (every Run clears its buffers on
// entry). With context.Background() the check compiles to nothing —
// a nil done channel is never selected on.
func (s *Scheduler) RunContext(ctx context.Context, demand Demand, seed uint64) (Result, error) {
	return s.run(ctx, demand, seed, nil)
}

// run assigns the demand's messages to trees and runs the model's round
// loop; f is the fault set of a faulted run and nil for a healthy one.
func (s *Scheduler) run(ctx context.Context, demand Demand, seed uint64, f *faultState) (Result, error) {
	if len(demand.Sources) == 0 {
		return Result{}, fmt.Errorf("cast: empty demand")
	}
	ds.Reseed(s.pcg, seed)
	s.assignDemand(len(demand.Sources))
	if s.core.model == sim.VCongest {
		return s.runVertex(ctx, demand, f)
	}
	return s.runEdge(ctx, demand, f)
}

// assignDemand routes each message to a tree with probability
// proportional to tree weight (the paper's "broadcast each message along
// a random tree"): r in [0, total] maps to the first tree whose
// cumulative weight covers it, found by binary search. NewScheduler
// admits only positive weights, so cum never decreases and the search
// returns the first j with r <= cum[j], even where sub-ulp weights make
// consecutive entries equal.
func (s *Scheduler) assignDemand(nMsgs int) {
	if cap(s.assign) < nMsgs {
		s.assign = make([]int32, nMsgs)
	}
	s.assign = s.assign[:nMsgs]
	clear(s.msgsPerTree)
	cum := s.core.cum
	for i := range s.assign {
		r := s.rng.Float64() * s.core.total
		ti, _ := slices.BinarySearch(cum, r)
		ti = min(ti, len(cum)-1)
		s.assign[i] = int32(ti)
		s.msgsPerTree[ti]++
	}
}

func newVertexCore(g *graph.Graph, trees []graph.WeightedTree) *vertexCore {
	n := g.N()
	vs := &vertexCore{
		stride: (n + 63) / 64,
		member: make([]*ds.Bitset, len(trees)),
	}
	for ti, t := range trees {
		vs.member[ti] = ds.NewBitset(n)
		for _, v := range t.Tree.Vertices() {
			vs.member[ti].Set(int(v))
		}
	}
	vs.nbrMask = make([]uint64, n*vs.stride)
	for v := 0; v < n; v++ {
		row := vs.nbrMask[v*vs.stride : (v+1)*vs.stride]
		for _, w := range g.Neighbors(v) {
			row[w>>6] |= 1 << (uint(w) & 63)
		}
	}
	return vs
}

// runVertex floods each message within its dominating tree's member set;
// non-members overhear their dominating neighbors. One transmission per
// node per round.
//
// Delivery state is kept message-major as node bitmasks so one
// transmission updates 64 neighbors per word operation: a send (v, m)
// ORs v's neighbor mask into message m's has-row, counts fresh
// deliveries by popcount, and derives the forwarding set as
// neighbors ∧ members ∧ ¬queued — identical, transmission for
// transmission, to a scalar per-neighbor loop.
//
// Under a fault set f, dead vertices are marked as holders of every
// message up front, so they never count as fresh deliveries; from the
// failure round their queues are dropped and senders use f.liveNbr (live
// neighbors over live edges) instead of nbrMask. When every queue is
// empty but messages are missing, the reroute pass re-queues them at
// their live holders.
func (s *Scheduler) runVertex(ctx context.Context, demand Demand, f *faultState) (Result, error) {
	vs := s.core.vs
	vb := s.vb
	n := s.core.g.N()
	nMsgs := len(demand.Sources)
	stride := vs.stride
	res := Result{TreeLoad: int(maxOf32(s.msgsPerTree))}

	s.hasM = ds.GrowClear(s.hasM, nMsgs*stride)
	vb.queuedM = ds.GrowClear(vb.queuedM, nMsgs*stride)
	for v := range vb.queues {
		vb.queues[v] = vb.queues[v][:0]
	}
	clear(vb.qhead)
	clear(vb.vcong)
	remaining := n * nMsgs
	maxRounds := 4 * (nMsgs + n) * (len(s.core.trees) + 2)
	if f != nil {
		remaining = (n - len(f.deadVIDs)) * nMsgs
		maxRounds *= f.maxRetries + 2
		for i := range s.hasM {
			s.hasM[i] = ^f.liveMask[i%stride]
		}
	}

	// Injection: each source holds its message and transmits it once;
	// member neighbors of the assigned tree pick it up and flood it
	// within the member set (Appendix A's "give the message to a random
	// tree": domination guarantees a member within one hop). Tree
	// memberships are announced once, charged as a setup round.
	res.SetupRounds = 1
	for m, src := range demand.Sources {
		i, bit := m*stride+src>>6, uint64(1)<<(uint(src)&63)
		if s.hasM[i]&bit == 0 {
			remaining--
		}
		s.hasM[i] |= bit
		vb.queuedM[i] |= bit
		vb.queues[src] = append(vb.queues[src], int32(m))
	}

	vb.nbr = vs.nbrMask
	done := ctx.Done()
	for remaining > 0 {
		if done != nil {
			select {
			case <-done:
				return res, ctx.Err()
			default:
			}
		}
		if f != nil && res.Rounds >= f.round {
			vb.nbr = f.liveNbr
			for _, v := range f.deadVIDs {
				vb.qhead[v] = int32(len(vb.queues[v]))
			}
		}
		sends := vb.sends[:0]
		for v := 0; v < n; v++ {
			if int(vb.qhead[v]) == len(vb.queues[v]) {
				continue
			}
			sends = append(sends, vtx{v, vb.queues[v][vb.qhead[v]]})
			vb.qhead[v]++
		}
		if len(sends) == 0 && f != nil {
			if !s.rerouteVertex(f, nMsgs, res.Rounds) {
				break
			}
			continue
		}
		if res.Rounds >= maxRounds {
			if f != nil {
				break
			}
			return res, fmt.Errorf("cast: vertex scheduler stalled after %d rounds (%d deliveries missing)", res.Rounds, remaining)
		}
		res.Rounds++
		for _, t := range sends {
			vb.vcong[t.v]++
			m := int(t.m)
			hrow := s.hasM[m*stride : (m+1)*stride]
			qrow := vb.queuedM[m*stride : (m+1)*stride]
			nrow := vb.nbr[t.v*stride : (t.v+1)*stride]
			mwords := vs.member[s.assign[m]].Words()
			for j, nb := range nrow {
				if nb == 0 {
					continue
				}
				if fresh := nb &^ hrow[j]; fresh != 0 {
					hrow[j] |= fresh
					remaining -= bits.OnesCount64(fresh)
				}
				// Members of the message's tree forward it (once each),
				// queued in ascending node order.
				for enq := nb & mwords[j] &^ qrow[j]; enq != 0; enq &= enq - 1 {
					w := j<<6 + bits.TrailingZeros64(enq)
					vb.queues[w] = append(vb.queues[w], t.m)
				}
				qrow[j] |= nb & mwords[j]
			}
		}
	}
	res.Throughput = float64(nMsgs) / float64(max(res.Rounds, 1))
	res.MaxVertexCongestion = int(maxOf32(vb.vcong))
	// Every transmission by a node crosses each of its incident edges
	// exactly once, so an edge's load is the sum of its endpoints'
	// transmission counts — no per-delivery counter needed. (Under faults
	// this is the healthy-equivalent upper bound for dead edges.)
	maxEdge := int32(0)
	for _, e := range s.core.g.Edges() {
		maxEdge = max(maxEdge, vb.vcong[e.U]+vb.vcong[e.V])
	}
	res.MaxEdgeCongestion = int(maxEdge)
	return res, nil
}

func newEdgeCore(g *graph.Graph, trees []graph.WeightedTree) (*edgeCore, error) {
	n, m := g.N(), g.M()
	off, nbr := g.AdjOffsets(), g.AdjTargets()
	es := &edgeCore{
		n:       n,
		ewords:  (m + 63) / 64,
		awords:  (2*m + 63) / 64,
		rowOf:   make([]int32, n),
		extOff:  make([]int32, n+1),
		slotDir: make([]int32, 2*m),
		heads:   make([]head, 2*m),
	}
	// revPort[s] is the port of s's row vertex in its neighbor's row:
	// rows are sorted, so each neighbor w meets its rows' vertices in
	// ascending order, and a cursor per w counts them off.
	revPort := make([]int32, 2*m)
	cur := make([]int32, n)
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		es.rowOf[v] = lo
		es.extOff[v+1] = es.extOff[v]
		if d := hi - lo; d > 32 {
			es.rowOf[v] = ^lo
			es.extOff[v+1] += (d+31)/32 - 1
		}
		for p, e := range g.IncidentEdges(v) {
			w := nbr[lo+int32(p)]
			es.slotDir[lo+int32(p)] = 2 * e
			if int32(v) > w {
				es.slotDir[lo+int32(p)]++
			}
			revPort[lo+int32(p)] = cur[w]
			cur[w]++
		}
	}
	for sl, dir := range es.slotDir {
		es.heads[dir].port = revPort[sl]
	}
	es.stride = n + int(es.extOff[n])
	es.masks = make([]uint32, len(trees)*es.stride)
	es.treeEdges = make([]uint64, len(trees)*es.ewords)
	for ti, t := range trees {
		words := es.masks[ti*es.stride : (ti+1)*es.stride]
		erow := es.treeEdges[ti*es.ewords : (ti+1)*es.ewords]
		for _, child := range t.Tree.Vertices() {
			parent, ok := t.Tree.Parent(int(child))
			if !ok {
				continue
			}
			lo := off[child]
			port, ok := portOf(nbr[lo:off[child+1]], int32(parent))
			if !ok {
				return nil, fmt.Errorf("cast: tree %d: edge (%d,%d) not in the graph", ti, child, parent)
			}
			sl := lo + int32(port)
			eid := es.slotDir[sl] >> 1
			erow[eid>>6] |= 1 << (uint(eid) & 63)
			es.setPort(words, int(child), port)
			es.setPort(words, parent, int(revPort[sl]))
		}
	}
	for eid, e := range g.Edges() {
		es.heads[2*eid].v = e.V
		es.heads[2*eid+1].v = e.U
	}
	return es, nil
}

// portOf returns w's index in the sorted row and whether w is there. Its
// binary search moves the base without a branch (the sign of w minus
// the probe masks the step), since the probes a build makes for the
// edges of many trees are unpredictable.
func portOf(row []int32, w int32) (int, bool) {
	base, n := 0, len(row)
	for n > 1 {
		half := n >> 1
		base += half &^ int((int64(w)-int64(row[base+half]))>>63)
		n -= half
	}
	return base, n == 1 && row[base] == w
}

// setPort sets port p of vertex v in one tree's mask words.
func (es *edgeCore) setPort(words []uint32, v, p int) {
	i := v
	if p >= 32 {
		i = es.n + int(es.extOff[v]) + p/32 - 1
	}
	words[i] |= 1 << (uint(p) & 31)
}

// runEdge pipelines each message along its spanning tree's edges; one
// message per directed edge per round.
//
// The round loop is bitmask-parallel in the arc dimension, mirroring the
// vertex scheduler's treatment: a 64-arcs-per-word activity mask records
// which directed edges have queued messages, so a round visits only live
// arcs (word-skip + trailing-zeros iteration) instead of scanning all 2m
// FIFOs. Congestion is not counted per transmission either: every pop is
// one transmission by the arc's tail, so countPops reads both meters off
// the FIFO cursors once the run ends.
//
// A round is two-phase, in three passes over eb.pops. The pop pass
// takes the head of every live arc's FIFO in ascending directed-edge
// order; it reads activeWords in place, since a pop clears only its own
// bit. The resolve pass loads, for each pop in order, its message's
// tree's port mask at the receiving vertex, less the arrival edge's
// bit, and the vertex's CSR row offset, so the round's per-tree loads
// are independent and issue back to back. The relay pass then appends
// each pop's message, in pop order, to the FIFO tails of the arcs its
// mask selects, reading only the graph-level slotDir; a head with
// extension words relays through enqueueTree instead. A pop relays onto
// distinct arcs, so the order of its arcs changes nothing. A relay
// revives an arc's bit only after every pop of the round, so no message
// moves twice in one round.
//
// Under a fault set f, dead arcs are masked out of the pop pass from
// the failure round, and the resolve pass checks deliveries against a
// (message, node) grid: a reroute may send a message to a node that
// already holds it, which absorbs the copy without relaying, and dead
// nodes are no delivery targets. When every live FIFO is empty but
// messages are missing, the reroute pass lays the FIFOs out again for
// just the rerouted messages and re-queues them at their live holders.
func (s *Scheduler) runEdge(ctx context.Context, demand Demand, f *faultState) (Result, error) {
	es := s.core.es
	eb := s.eb
	n := s.core.g.N()
	nMsgs := len(demand.Sources)
	stride := (n + 63) / 64
	res := Result{TreeLoad: int(maxOf32(s.msgsPerTree))}

	if eb.pops == nil {
		eb.pops = make([]pop, 0, 2*s.core.g.M())
	}
	clear(eb.vcong)
	clear(eb.econg)
	s.layoutFIFOs(s.msgsPerTree)
	remaining := n * nMsgs
	maxRounds := 4 * (nMsgs + n) * (len(s.core.trees) + 2)
	if f != nil {
		remaining = (n - len(f.deadVIDs)) * nMsgs
		maxRounds *= f.maxRetries + 2
		s.hasM = ds.GrowClear(s.hasM, nMsgs*stride)
	}

	// Injection delivers each message at its source and queues it on
	// every arc of its tree there. A tree flood visits each vertex exactly
	// once (arcs of a tree cannot revisit, and the arrival arc is
	// skipped), so in a healthy run every relay is a fresh delivery and
	// remaining can fall by the round's pops — no delivery grid needed.
	for msg, src := range demand.Sources {
		if f != nil {
			bit := uint64(1) << (uint(src) & 63)
			s.hasM[msg*stride+src>>6] |= bit
			if f.liveMask[src>>6]&bit == 0 {
				remaining++ // a dead source is no delivery target
			}
		}
		remaining--
		s.enqueueTree(int32(msg), src, -1)
	}

	done := ctx.Done()
	for remaining > 0 {
		if done != nil {
			select {
			case <-done:
				return res, ctx.Err()
			default:
			}
		}
		var deadArcs []uint64
		if f != nil && res.Rounds >= f.round {
			deadArcs = f.deadArcs
			var live uint64
			for i, w := range eb.activeWords {
				live |= w &^ deadArcs[i]
			}
			if live == 0 {
				if !s.rerouteEdge(f, nMsgs, res.Rounds) {
					break
				}
				continue
			}
		}
		if res.Rounds >= maxRounds {
			if f != nil {
				break
			}
			return res, fmt.Errorf("cast: edge scheduler stalled after %d rounds (%d deliveries missing)", res.Rounds, remaining)
		}
		res.Rounds++

		// Pop: every live arc transmits its FIFO head.
		pops := eb.pops[:0]
		for wi, w := range eb.activeWords {
			if deadArcs != nil {
				w &^= deadArcs[wi]
			}
			for ; w != 0; w &= w - 1 {
				dir := wi<<6 + bits.TrailingZeros64(w)
				ht := eb.qht[dir] + 1
				eb.qht[dir] = ht
				if uint32(ht) == uint32(ht>>32) {
					eb.activeWords[wi] &^= 1 << (uint(dir) & 63)
				}
				pops = append(pops, pop{dir: int32(dir), msg: eb.qbuf[uint32(ht)-1]})
			}
		}

		// Resolve: each pop's relay arcs at its receiving vertex.
		delivered := len(pops)
		for i := range pops {
			p := &pops[i]
			h := es.heads[p.dir]
			v := int(h.v)
			if f != nil {
				at, bit := int(p.msg)*stride+v>>6, uint64(1)<<(uint(v)&63)
				if s.hasM[at]&bit != 0 {
					delivered-- // already held (reroute overlap): absorb, no relay
					continue
				}
				s.hasM[at] |= bit
				if f.liveMask[v>>6]&bit == 0 {
					delivered-- // doomed vertex: relays until the failure round, but is no target
				}
			}
			// The arrival edge's bit is cleared here, so the relay pass
			// queues on every set bit. (A head with extension words
			// relays through enqueueTree, which skips it by edge id.)
			p.mask = es.masks[int(s.assign[p.msg])*es.stride+v] &^ (1 << (uint(h.port) & 31))
			p.row = es.rowOf[v]
		}
		remaining -= delivered

		// Relay, open-coded: enqueueTree is not inlined, and this loop
		// carries every transmission of the run. A head with extension
		// words relays through it.
		for _, p := range pops {
			if p.row < 0 {
				s.enqueueTree(p.msg, int(es.heads[p.dir].v), p.dir>>1)
				continue
			}
			for w := p.mask; w != 0; w &= w - 1 {
				adir := es.slotDir[p.row+int32(bits.TrailingZeros32(w))]
				aht := eb.qht[adir]
				if uint32(aht) == uint32(aht>>32) {
					eb.activeWords[adir>>6] |= 1 << (uint(adir) & 63)
				}
				eb.qbuf[aht>>32] = p.msg
				eb.qht[adir] = aht + 1<<32
			}
		}
	}
	s.countPops()
	res.Throughput = float64(nMsgs) / float64(max(res.Rounds, 1))
	res.MaxVertexCongestion = int(maxOf32(eb.vcong))
	res.MaxEdgeCongestion = int(maxOf32(eb.econg))
	return res, nil
}

// layoutFIFOs lays the flat FIFO storage out for the messages counted
// per tree in perTree. A message crosses each edge of its tree at most
// once per direction, so each direction of edge e gets
// Σ_{t∋e} perTree[t] slots: the counts accumulate in qoff[2e+1] and
// become segment offsets in place. qht packs each FIFO's (tail<<32)|head
// cursor pair into one word, with cursors absolute into qbuf and seeded
// at the segment base, so the transmission loops never reload the
// segment offsets; a FIFO is empty iff head == tail.
func (s *Scheduler) layoutFIFOs(perTree []int32) {
	es, eb := s.core.es, s.eb
	clear(eb.qoff)
	for ti, c := range perTree {
		if c == 0 {
			continue
		}
		for wi, w := range es.treeEdges[ti*es.ewords : (ti+1)*es.ewords] {
			for ; w != 0; w &= w - 1 {
				eb.qoff[2*(wi<<6+bits.TrailingZeros64(w))+1] += c
			}
		}
	}
	for i := 1; i < len(eb.qoff); i += 2 {
		c := eb.qoff[i]
		eb.qoff[i] = eb.qoff[i-1] + c
		eb.qoff[i+1] = eb.qoff[i] + c
	}
	need := int(eb.qoff[len(eb.qoff)-1])
	if cap(eb.qbuf) < need {
		eb.qbuf = make([]int32, need)
	}
	eb.qbuf = eb.qbuf[:need]
	for dir := range eb.qht {
		eb.qht[dir] = uint64(eb.qoff[dir]) * (1<<32 + 1)
	}
	clear(eb.activeWords)
}

// enqueueTree queues message msg on every arc of its tree at v, except
// the arcs of edge skip (the arrival edge; -1 queues on all of them),
// walking v's mask word and then its extension words. Injection and
// reroute queue through it, and so does the relay pass at a vertex with
// extension words.
func (s *Scheduler) enqueueTree(msg int32, v int, skip int32) {
	es := s.core.es
	words := es.masks[int(s.assign[msg])*es.stride:]
	row := es.rowOf[v]
	if row >= 0 {
		s.enqueueWord(msg, words[v], row, skip)
		return
	}
	row = ^row
	s.enqueueWord(msg, words[v], row, skip)
	for k, w := range words[es.n+int(es.extOff[v]) : es.n+int(es.extOff[v+1])] {
		s.enqueueWord(msg, w, row+32*int32(k+1), skip)
	}
}

// enqueueWord queues msg on the arcs slotDir[row+p] for every set bit p
// of mask, except the arcs of edge skip.
func (s *Scheduler) enqueueWord(msg int32, mask uint32, row, skip int32) {
	es, eb := s.core.es, s.eb
	for ; mask != 0; mask &= mask - 1 {
		dir := es.slotDir[row+int32(bits.TrailingZeros32(mask))]
		if dir>>1 == skip {
			continue
		}
		ht := eb.qht[dir]
		if uint32(ht) == uint32(ht>>32) {
			eb.activeWords[dir>>6] |= 1 << (uint(dir) & 63)
		}
		eb.qbuf[ht>>32] = msg
		eb.qht[dir] = ht + 1<<32
	}
}

// countPops adds every arc's pops since the last layout to the
// congestion meters: a pop is one transmission by the arc's tail over
// its edge. In a healthy run every queued copy is popped by the end, so
// this equals the per-tree derivation (each message crosses each edge
// of its tree once; each member v sends it deg_t(v)-1 times, deg_t(v)
// at its source).
func (s *Scheduler) countPops() {
	es, eb := s.core.es, s.eb
	for dir, ht := range eb.qht {
		if pops := int32(uint32(ht)) - eb.qoff[dir]; pops != 0 {
			eb.vcong[es.heads[dir^1].v] += pops
			eb.econg[dir>>1] += pops
		}
	}
}
