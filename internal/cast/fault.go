// Fault injection for the broadcast Scheduler: the paper's whole point
// is information flow *matching connectivity* — a fractionally disjoint
// tree packing means broadcast traffic survives edge and vertex
// failures up to the connectivity bound — and this file is where that
// claim is exercised. A FaultPlan kills a deterministic (seeded) set of
// edges and/or vertices at a chosen round; RunFaulted runs the same
// round loop as Run (runVertex, runEdge) with the resulting fault state,
// so it replays the exact healthy schedule until the failure round,
// stops dead elements from carrying messages after it, and reroutes
// undelivered messages over the surviving trees with a bounded
// per-message retry budget. The result reports delivered fraction,
// per-tree survival, and the round overhead paid for rerouting — a
// faulted run never errors because of delivery shortfalls; partial
// delivery is a structured result.
//
// Everything is deterministic: the demand's tree assignment draws the
// same PCG stream as Run, the fault set is derived from the plan's own
// seed, and retries pick surviving trees by index arithmetic — so a
// faulted run is byte-identical across a Scheduler and its Clone, and a
// plan that never triggers (failure round beyond completion, nothing
// killed) reproduces Run's Result field for field.
package cast

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/ds"
)

// FaultPlan describes one deterministic failure scenario.
type FaultPlan struct {
	// Round is the failure round: transmissions in rounds >= Round no
	// longer cross dead edges or involve dead vertices. Round 0 kills
	// everything in the plan before the first transmission.
	Round int `json:"round"`
	// Edges and Vertices are killed outright (edge ids / vertex ids of
	// the scheduler's graph).
	Edges    []int `json:"edges,omitempty"`
	Vertices []int `json:"vertices,omitempty"`
	// RandomEdges and RandomVertices kill that many additional distinct
	// elements, drawn from a PCG seeded with Seed — a plan is replayable
	// from (graph, plan) alone. Vertices are drawn before edges.
	RandomEdges    int    `json:"random_edges,omitempty"`
	RandomVertices int    `json:"random_vertices,omitempty"`
	Seed           uint64 `json:"seed,omitempty"`
	// MaxRetries bounds how many times one undelivered message may be
	// rerouted over a surviving tree before it is given up as lost.
	// Zero means the default (2); negative disables retries; at most 16.
	MaxRetries int `json:"max_retries,omitempty"`
}

// defaultFaultRetries is the reroute budget when the plan leaves
// MaxRetries at zero; maxFaultRetries caps an explicit budget, since a
// faulted run's length grows linearly with it.
const (
	defaultFaultRetries = 2
	maxFaultRetries     = 16
)

func (p FaultPlan) retries() int {
	switch {
	case p.MaxRetries > 0:
		return p.MaxRetries
	case p.MaxRetries < 0:
		return 0
	default:
		return defaultFaultRetries
	}
}

// FaultResult is a faulted run's outcome: the usual scheduling Result
// plus the fault accounting. All fields are scalars, so two results
// compare with ==.
type FaultResult struct {
	Result

	// FailedEdges and FailedVertices count the elements the plan killed
	// (explicit plus random; edges dead only via a dead endpoint are not
	// double-counted here).
	FailedEdges    int
	FailedVertices int
	// TreesSurviving counts decomposition trees untouched by the fault
	// set: no dead member vertex and no dead usable edge. Retries route
	// over exactly these trees (falling back to damaged trees only when
	// none survive).
	TreesSurviving int
	// PairsExpected is the delivery target: messages × surviving
	// vertices. PairsDelivered is how many of those (message, vertex)
	// deliveries were achieved; DeliveredFraction their ratio.
	PairsExpected     int
	PairsDelivered    int
	DeliveredFraction float64
	// MessagesDelivered counts messages that reached every surviving
	// vertex; MessagesLost the ones given up after the retry budget.
	MessagesDelivered int
	MessagesLost      int
	// Retries counts per-message reroutes over surviving trees;
	// RetryRounds the rounds spent after the first reroute (the round
	// overhead of fault recovery, included in Rounds).
	Retries     int
	RetryRounds int
}

// faultState is the fault set of one faulted run plus its reroute
// bookkeeping, grown once per handle and reused across RunFaulted calls
// (clones allocate their own lazily, so faulted runs stay
// concurrent-safe across clones). The round loops read it; a healthy
// run passes none.
type faultState struct {
	round      int // failure round
	maxRetries int

	deadV     []bool
	deadE     []bool
	deadVIDs  []int32
	deadEIDs  []int32
	liveTrees []int32
	liveMask  []uint64 // live-vertex bitmask, one stride row
	liveNbr   []uint64 // V-CONGEST: nbrMask rows restricted to live neighbors over live edges
	deadArcs  []uint64 // E-CONGEST: arcs on dead edges or incident to a dead vertex

	attempts        []int32 // reroutes so far, per message
	rerouted        []int32 // messages moved to a new tree by the last reroute pass
	retries         int
	firstRetryRound int // Rounds at the first reroute, -1 before it
}

// RunFaulted runs the demand under the fault plan; see RunFaultedContext.
func (s *Scheduler) RunFaulted(demand Demand, seed uint64, plan FaultPlan) (FaultResult, error) {
	return s.RunFaultedContext(context.Background(), demand, seed, plan)
}

// RunFaultedContext disseminates the demand exactly as Run would for
// the same seed until the plan's failure round, then applies the fault
// set: dead edges and arcs incident to dead vertices stop carrying
// messages, dead vertices stop transmitting and no longer count as
// delivery targets, and once the flood stalls each undelivered message
// is rerouted over a surviving tree (bounded retries; exhausted budget
// counts the message as lost). Partial delivery is a structured result,
// never an error — errors are reserved for empty demands, invalid
// plans, and context cancellation.
func (s *Scheduler) RunFaultedContext(ctx context.Context, demand Demand, seed uint64, plan FaultPlan) (FaultResult, error) {
	f, err := s.prepareFaults(plan, len(demand.Sources))
	if err != nil {
		return FaultResult{}, err
	}
	r, err := s.run(ctx, demand, seed, f)
	res := FaultResult{
		Result:         r,
		FailedEdges:    len(f.deadEIDs),
		FailedVertices: len(f.deadVIDs),
		TreesSurviving: len(f.liveTrees),
		PairsExpected:  len(demand.Sources) * (s.core.g.N() - len(f.deadVIDs)),
		Retries:        f.retries,
	}
	if err != nil {
		return res, err
	}
	has, stride := s.hasM, len(f.liveMask)
	for msg := range demand.Sources {
		missing := false
		for j, live := range f.liveMask {
			res.PairsDelivered += bits.OnesCount64(live & has[msg*stride+j])
			missing = missing || live&^has[msg*stride+j] != 0
		}
		if missing {
			res.MessagesLost++
		}
	}
	res.MessagesDelivered = len(demand.Sources) - res.MessagesLost
	if res.PairsExpected > 0 {
		res.DeliveredFraction = float64(res.PairsDelivered) / float64(res.PairsExpected)
	}
	if f.firstRetryRound >= 0 {
		res.RetryRounds = res.Rounds - f.firstRetryRound
	}
	return res, nil
}

// prepareFaults validates the plan and materializes the fault set:
// explicit kills, then seeded random draws (vertices before edges, so
// either count alone replays the same stream prefix), then the trees
// that survive untouched and the masks the round loop reads.
func (s *Scheduler) prepareFaults(plan FaultPlan, nMsgs int) (*faultState, error) {
	g := s.core.g
	n, m := g.N(), g.M()
	switch {
	case plan.Round < 0:
		return nil, fmt.Errorf("cast: fault round %d < 0", plan.Round)
	case plan.RandomEdges < 0 || plan.RandomVertices < 0:
		return nil, fmt.Errorf("cast: negative random fault counts (%d edges, %d vertices)", plan.RandomEdges, plan.RandomVertices)
	case plan.MaxRetries > maxFaultRetries:
		return nil, fmt.Errorf("cast: fault max_retries %d above the cap of %d", plan.MaxRetries, maxFaultRetries)
	}
	if s.faults == nil {
		s.faults = &faultState{}
	}
	f := s.faults
	f.round, f.maxRetries = plan.Round, plan.retries()
	f.retries, f.firstRetryRound = 0, -1
	f.deadV = ds.GrowClear(f.deadV, n)
	f.deadE = ds.GrowClear(f.deadE, m)
	f.deadVIDs, f.deadEIDs = f.deadVIDs[:0], f.deadEIDs[:0]
	for _, v := range plan.Vertices {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("cast: fault vertex %d out of range [0,%d)", v, n)
		}
		kill(f.deadV, &f.deadVIDs, v)
	}
	for _, e := range plan.Edges {
		if e < 0 || e >= m {
			return nil, fmt.Errorf("cast: fault edge %d out of range [0,%d)", e, m)
		}
		kill(f.deadE, &f.deadEIDs, e)
	}
	if plan.RandomVertices > 0 || plan.RandomEdges > 0 {
		ds.Reseed(s.pcg, plan.Seed)
		for k := 0; k < plan.RandomVertices && len(f.deadVIDs) < n; {
			if kill(f.deadV, &f.deadVIDs, s.rng.IntN(n)) {
				k++
			}
		}
		for k := 0; k < plan.RandomEdges && len(f.deadEIDs) < m; {
			if kill(f.deadE, &f.deadEIDs, s.rng.IntN(m)) {
				k++
			}
		}
	}
	f.liveTrees = f.liveTrees[:0]
	for ti := range s.core.trees {
		if s.treeSurvives(ti, f) {
			f.liveTrees = append(f.liveTrees, int32(ti))
		}
	}
	stride := (n + 63) / 64
	f.liveMask = ds.GrowClear(f.liveMask, stride)
	for v, dead := range f.deadV {
		if !dead {
			f.liveMask[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	if vs := s.core.vs; vs != nil {
		f.liveNbr = append(f.liveNbr[:0], vs.nbrMask...)
		for i := range f.liveNbr {
			f.liveNbr[i] &= f.liveMask[i%stride]
		}
		for _, e := range f.deadEIDs {
			u, w := g.Endpoints(int(e))
			f.liveNbr[u*stride+w>>6] &^= 1 << (uint(w) & 63)
			f.liveNbr[w*stride+u>>6] &^= 1 << (uint(u) & 63)
		}
	} else {
		// Both arcs of edge e (2e and 2e+1) share one word.
		f.deadArcs = ds.GrowClear(f.deadArcs, s.core.es.awords)
		for e, ed := range g.Edges() {
			if f.deadE[e] || f.deadV[ed.U] || f.deadV[ed.V] {
				f.deadArcs[e>>5] |= 3 << (uint(2*e) & 63)
			}
		}
	}
	f.attempts = ds.GrowClear(f.attempts, nMsgs)
	return f, nil
}

// kill adds element x to a fault set (dead flags plus id list),
// reporting whether it was alive before.
func kill(dead []bool, ids *[]int32, x int) bool {
	if dead[x] {
		return false
	}
	dead[x] = true
	*ids = append(*ids, int32(x))
	return true
}

// treeSurvives reports whether tree ti is untouched by the fault set:
// no member vertex is dead and no edge it could route over is dead. In
// E-CONGEST the routed edges are exactly the tree edges; in V-CONGEST a
// member's transmission crosses every edge between members, so any dead
// member-member edge disqualifies (a conservative test — the flood may
// still succeed around it).
func (s *Scheduler) treeSurvives(ti int, f *faultState) bool {
	if s.core.es != nil {
		// Spanning trees contain every vertex, so any dead vertex kills
		// every tree.
		if len(f.deadVIDs) > 0 {
			return false
		}
		erow := s.core.es.treeEdges[ti*s.core.es.ewords : (ti+1)*s.core.es.ewords]
		for _, e := range f.deadEIDs {
			if erow[e>>6]&(1<<(uint(e)&63)) != 0 {
				return false
			}
		}
		return true
	}
	member := s.core.vs.member[ti]
	for _, v := range f.deadVIDs {
		if member.Has(int(v)) {
			return false
		}
	}
	for _, e := range f.deadEIDs {
		u, w := s.core.g.Endpoints(int(e))
		if member.Has(u) && member.Has(w) {
			return false
		}
	}
	return true
}

// pickReroutes is the reroute pass both round loops run once every live
// queue is empty: each message some live vertex still lacks, with retry
// budget left and a live holder, moves to its next retry tree and is
// listed in f.rerouted, in ascending order, for the loop to re-queue at
// its live holders. A message no live vertex holds (e.g. its source died
// at round 0) is lost outright. It reports whether anything moved.
func (s *Scheduler) pickReroutes(f *faultState, nMsgs, rounds int) bool {
	has, stride := s.hasM, len(f.liveMask)
	f.rerouted = f.rerouted[:0]
	for msg := 0; msg < nMsgs; msg++ {
		hrow := has[msg*stride : (msg+1)*stride]
		missing, holders := false, false
		for j, live := range f.liveMask {
			missing = missing || live&^hrow[j] != 0
			holders = holders || live&hrow[j] != 0
		}
		if !missing || int(f.attempts[msg]) >= f.maxRetries {
			continue
		}
		if !holders {
			f.attempts[msg] = int32(f.maxRetries)
			continue
		}
		s.assign[msg] = s.retryTree(msg, int(f.attempts[msg]), f)
		f.attempts[msg]++
		f.rerouted = append(f.rerouted, int32(msg))
	}
	if len(f.rerouted) == 0 {
		return false
	}
	if f.firstRetryRound < 0 {
		f.firstRetryRound = rounds
	}
	f.retries += len(f.rerouted)
	return true
}

// rerouteVertex is the V-CONGEST reroute: all live holders re-queue each
// rerouted message and its queued row resets to exactly that holder set,
// so the new tree's members forward it as a fresh multi-source flood.
func (s *Scheduler) rerouteVertex(f *faultState, nMsgs, rounds int) bool {
	vb, stride := s.vb, s.core.vs.stride
	if !s.pickReroutes(f, nMsgs, rounds) {
		return false
	}
	for _, m := range f.rerouted {
		hrow := s.hasM[int(m)*stride : int(m+1)*stride]
		qrow := vb.queuedM[int(m)*stride : int(m+1)*stride]
		for j := range qrow {
			qrow[j] = hrow[j] & f.liveMask[j]
			for hold := qrow[j]; hold != 0; hold &= hold - 1 {
				v := j<<6 + bits.TrailingZeros64(hold)
				vb.queues[v] = append(vb.queues[v], m)
			}
		}
	}
	return true
}

// rerouteEdge is the E-CONGEST reroute: every live FIFO is empty, so
// once the pops so far are metered the FIFOs are laid out again for
// just the rerouted messages (msgsPerTree, whose TreeLoad is already
// taken, now counts them per new tree), and every live holder queues
// its message on all of the new tree's arcs there.
func (s *Scheduler) rerouteEdge(f *faultState, nMsgs, rounds int) bool {
	if !s.pickReroutes(f, nMsgs, rounds) {
		return false
	}
	s.countPops()
	clear(s.msgsPerTree)
	for _, m := range f.rerouted {
		s.msgsPerTree[s.assign[m]]++
	}
	s.layoutFIFOs(s.msgsPerTree)
	stride := len(f.liveMask)
	for _, m := range f.rerouted {
		for j, live := range f.liveMask {
			for hold := s.hasM[int(m)*stride+j] & live; hold != 0; hold &= hold - 1 {
				s.enqueueTree(m, j<<6+bits.TrailingZeros64(hold), -1)
			}
		}
	}
	return true
}

// retryTree picks the tree for a message's attempt-th reroute: round-
// robin over the surviving trees (so retried messages spread instead of
// piling onto one tree), skipping the current assignment when another
// choice exists, falling back to the full tree list when nothing
// survives untouched — a damaged tree still reaches its fragment.
func (s *Scheduler) retryTree(msg, attempt int, f *faultState) int32 {
	if len(f.liveTrees) > 0 {
		idx := (msg + attempt) % len(f.liveTrees)
		ti := f.liveTrees[idx]
		if ti == s.assign[msg] && len(f.liveTrees) > 1 {
			ti = f.liveTrees[(idx+1)%len(f.liveTrees)]
		}
		return ti
	}
	t := len(s.core.trees)
	idx := (msg + attempt) % t
	if int32(idx) == s.assign[msg] && t > 1 {
		idx = (idx + 1) % t
	}
	return int32(idx)
}
