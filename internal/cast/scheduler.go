// The reusable broadcast Scheduler handle: construction builds every
// demand-independent artifact of the congestion-model round loops once
// (per-tree CSR adjacency, membership and neighbor bitmasks, per-tree
// edge bitmasks), and Run serves an arbitrary sequence of demands with
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
	"math/bits"
	"math/rand/v2"

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

// edgeCore is the E-CONGEST scheduler's immutable setup. The per-tree
// CSR arc lists live in shared backing arrays sized for all trees (a
// fixed 2(n-1) arc stride per tree): tree ti's arcs at vertex v are
// arcBack[abase[ti]+off[v] : abase[ti]+off[v+1]] with
// off = offBack[ti*(n+1):]. An arc is stored as its directed-edge index
// dir = 2*eid + side alone — the edge id is dir>>1 and the receiving
// endpoint comes from headOf — so arcs are 4 bytes each. treeEdges[ti]
// is the tree's edge set as a bitmask over edge ids.
type edgeCore struct {
	ewords, awords int

	offBack   []int32  // len(trees)*(n+1) CSR offsets
	arcBack   []int32  // len(trees)*2*(n-1) directed-edge indices
	abase     []int32  // arcBack base per tree
	treeEdges []uint64 // per-tree edge bitmask rows
	headOf    []int32  // headOf[dir] = receiving endpoint of arc dir
}

// edgeBuffers is the E-CONGEST scheduler's per-handle run state: FIFO
// layout, cursors, activity masks, and congestion tables recomputed per
// demand over grown-once storage.
type edgeBuffers struct {
	vcong       []int32  // transmissions per node, counted from FIFO pops
	econg       []int32  // messages per edge, counted from FIFO pops
	qoff        []int32  // per-arc FIFO segment offsets into qbuf
	qht         []uint64 // packed (tail<<32)|head cursor per arc
	activeWords []uint64 // live-arc bitmask
	snapWords   []uint64 // per-round snapshot of activeWords
	qbuf        []int32  // flat FIFO storage, grown to the demand size
}

// NewScheduler validates the decomposition against the model and builds
// the demand-independent scheduler state: in sim.VCongest mode the trees
// must be dominating trees; in sim.ECongest mode they must be spanning
// trees.
func NewScheduler(g *graph.Graph, trees []graph.WeightedTree, model sim.Model) (*Scheduler, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("cast: no trees")
	}
	for i, t := range trees {
		if model == sim.ECongest && !t.Tree.IsSpanning(g) {
			return nil, fmt.Errorf("cast: tree %d not spanning (required in E-CONGEST)", i)
		}
		if model == sim.VCongest && !t.Tree.IsDominatingIn(g) {
			return nil, fmt.Errorf("cast: tree %d not dominating (required in V-CONGEST)", i)
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
	switch model {
	case sim.VCongest:
		core.vs = newVertexCore(g, trees)
	case sim.ECongest:
		core.es = newEdgeCore(g, trees)
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
			snapWords:   make([]uint64, (nArcs+63)/64),
		}
	}
	return s
}

// Clone returns an independent handle over the same immutable core:
// setup artifacts (per-tree CSR arc lists and bitmasks) are shared, run
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
// cumulative weight covers it.
func (s *Scheduler) assignDemand(nMsgs int) {
	if cap(s.assign) < nMsgs {
		s.assign = make([]int32, nMsgs)
	}
	s.assign = s.assign[:nMsgs]
	clear(s.msgsPerTree)
	trees, cum := s.core.trees, s.core.cum
	for i := range s.assign {
		r := s.rng.Float64() * s.core.total
		ti := len(trees) - 1
		for j, c := range cum {
			if r <= c {
				ti = j
				break
			}
		}
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

func newEdgeCore(g *graph.Graph, trees []graph.WeightedTree) *edgeCore {
	n := g.N()
	m := g.M()
	nArcs := 2 * m
	arcStride := 2 * max(n-1, 0)
	edges := g.Edges()
	es := &edgeCore{
		ewords:  (m + 63) / 64,
		awords:  (nArcs + 63) / 64,
		offBack: make([]int32, len(trees)*(n+1)),
		arcBack: make([]int32, len(trees)*arcStride),
		abase:   make([]int32, len(trees)),
		headOf:  make([]int32, nArcs),
	}
	es.treeEdges = make([]uint64, len(trees)*es.ewords)
	cur := make([]int32, n)
	tedges := make([]int32, 0, 3*max(n-1, 0)) // (child, parent, eid) triples
	for ti, t := range trees {
		es.abase[ti] = int32(ti * arcStride)
		off := es.offBack[ti*(n+1) : (ti+1)*(n+1)]
		erow := es.treeEdges[ti*es.ewords : (ti+1)*es.ewords]
		tedges = tedges[:0]
		t.Tree.ForEachEdge(func(child, parent int) {
			eid, ok := g.EdgeID(child, parent)
			if !ok {
				return
			}
			erow[eid>>6] |= 1 << (uint(eid) & 63)
			off[child+1]++
			off[parent+1]++
			tedges = append(tedges, int32(child), int32(parent), int32(eid))
		})
		for v := 0; v < n; v++ {
			off[v+1] += off[v]
		}
		list := es.arcBack[es.abase[ti] : int(es.abase[ti])+int(off[n])]
		copy(cur, off[:n])
		for i := 0; i < len(tedges); i += 3 {
			child, parent, eid := tedges[i], tedges[i+1], tedges[i+2]
			childDir, parentDir := 2*eid, 2*eid+1
			if child != edges[eid].U {
				childDir, parentDir = parentDir, childDir
			}
			list[cur[child]] = childDir
			cur[child]++
			list[cur[parent]] = parentDir
			cur[parent]++
		}
	}
	for eid, e := range edges {
		es.headOf[2*eid] = e.V
		es.headOf[2*eid+1] = e.U
	}
	return es
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
// Under a fault set f, dead arcs are masked out of each round's
// snapshot from the failure round, and deliveries go through a
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
	// remaining can decrement unconditionally — no delivery grid needed.
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
		if f != nil && res.Rounds >= f.round {
			var live uint64
			for i, w := range eb.activeWords {
				eb.snapWords[i] = w &^ f.deadArcs[i]
				live |= eb.snapWords[i]
			}
			if live == 0 {
				if !s.rerouteEdge(f, nMsgs, res.Rounds) {
					break
				}
				continue
			}
		} else {
			copy(eb.snapWords, eb.activeWords)
		}
		if res.Rounds >= maxRounds {
			if f != nil {
				break
			}
			return res, fmt.Errorf("cast: edge scheduler stalled after %d rounds (%d deliveries missing)", res.Rounds, remaining)
		}
		res.Rounds++
		// Every arc live at round start transmits its FIFO head, in
		// ascending directed-edge order. Popping from a snapshot of the
		// live mask makes the immediate relay equivalent to a two-phase
		// (pop all, then relay) round: a relay only appends at queue tails
		// and revives bits outside the snapshot, neither of which a
		// snapshot pop ever re-reads within the round.
		for wi, w := range eb.snapWords {
			for ; w != 0; w &= w - 1 {
				dir := wi<<6 + bits.TrailingZeros64(w)
				ht := eb.qht[dir] + 1
				eb.qht[dir] = ht
				msg := eb.qbuf[uint32(ht)-1]
				if uint32(ht) == uint32(ht>>32) {
					eb.activeWords[wi] &^= 1 << (uint(dir) & 63)
				}
				// The relay, open-coded: enqueueTree is not inlined, and
				// this loop carries every transmission of the run.
				fromEdge := int32(dir) >> 1
				v := int(es.headOf[dir])
				if f != nil {
					i, bit := int(msg)*stride+v>>6, uint64(1)<<(uint(v)&63)
					if s.hasM[i]&bit != 0 {
						continue // already held (reroute overlap): absorb, no relay
					}
					s.hasM[i] |= bit
					if f.liveMask[v>>6]&bit == 0 {
						remaining++ // doomed vertex: relays until the failure round, but is no target
					}
				}
				remaining--
				ti := int(s.assign[msg])
				off := es.offBack[ti*(n+1):]
				base := es.abase[ti]
				for _, adir := range es.arcBack[base+off[v] : base+off[v+1]] {
					if adir>>1 == fromEdge {
						continue
					}
					aht := eb.qht[adir]
					if uint32(aht) == uint32(aht>>32) {
						eb.activeWords[adir>>6] |= 1 << (uint(adir) & 63)
					}
					eb.qbuf[aht>>32] = msg
					eb.qht[adir] = aht + 1<<32
				}
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
// the arcs of edge skip (the arrival edge; -1 queues on all of them).
func (s *Scheduler) enqueueTree(msg int32, v int, skip int32) {
	es, eb := s.core.es, s.eb
	ti := int(s.assign[msg])
	off := es.offBack[ti*(s.core.g.N()+1):]
	base := es.abase[ti]
	for _, dir := range es.arcBack[base+off[v] : base+off[v+1]] {
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
			eb.vcong[es.headOf[dir^1]] += pops
			eb.econg[dir>>1] += pops
		}
	}
}
