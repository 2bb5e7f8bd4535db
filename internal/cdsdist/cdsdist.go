// Package cdsdist implements the distributed fractional dominating-tree
// packing of Theorem 1.1 in the V-CONGEST model, following Appendix B.
//
// Each real node simulates the 3L virtual nodes of the paper's virtual
// graph internally; virtual-node messages are sent as slots of the real
// node's local broadcast, so the simulator's slot meter realizes exactly
// the paper's meta-round accounting (Θ(log n) real rounds per virtual
// round). The per-layer structure is the paper's: component
// identification, deactivation by type-1 connectors, bridging-graph
// construction through type-3 messages, and O(log n) stages of
// randomized proposal matching (Appendix B.3), followed by per-class
// distributed BFS tree extraction.
//
// Every component-wide aggregate is one process, dist.MinFlood,
// Theorem B.2's restricted flooding of per-class minima, which the
// Appendix E tester runs too: component ids, deactivation and the best
// proposal all flood through it. A node's per-class state lives in rows
// parallel to its sorted class list, carved from one slab per kind of
// state whenever the lists grow. Beside its list each node keeps a
// class row, a bitmask of its classes, so a message finds its class's
// position in the list with ds.Index: a bit test and a popcount, not a
// scan.
//
// Pack runs every guess of Remark 3.1's loop in one arena: the engine
// with every node's outboxes, the per-node random streams, the class
// lists and rows, the slabs, the node arrays of every phase and the
// matching state are allocated at the first and largest guess and
// reset for each later one, and one tester.Checker tests every guess,
// all its classes at once.
package cdsdist

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/cds"
	"repro/internal/check"
	"repro/internal/dist"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tester"
)

// Message kinds used by the protocol.
const (
	kindComp    = 20 // (class, compID): component-id flooding
	kindDeact   = 21 // (class): connector shout and deactivation flooding
	kindCompAnn = 22 // (class, compID, active01): component announcement
	kindScout   = 23 // (class, compID|-1 connector): type-3 message m_w
	kindPropose = 24 // (class, compID, value): type-2 proposal; flooded as (class, −value, −proposer)
	kindAccept  = 25 // (class, compID, value, proposer): accepted proposal
	kindBFS     = 26 // (class, depth): tree-extraction flood
)

const connectorSymbol = -1

// Result is the outcome of a distributed packing run.
type Result struct {
	Packing *cds.Packing
	Meter   sim.Meter
}

// PackWithGuess runs the Appendix B protocol with a fixed connectivity
// guess (the paper's 2-approximation assumption; Pack removes it). It
// allocates its own arena; Pack runs its whole loop in one, with
// identical results.
func PackWithGuess(g *graph.Graph, kGuess int, opts cds.Options) (*Result, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("cdsdist: empty graph")
	}
	return packWithGuess(g, kGuess, opts.Normalize(), dist.ApproxD(g), new(arena))
}

// packWithGuess is PackWithGuess on a non-empty graph with normalized
// options and the diameter bound the run charges, dist.ApproxD(g),
// which Pack computes once for all its guesses, run in the arena a,
// which holds either nothing yet or an earlier guess's state on g.
func packWithGuess(g *graph.Graph, kGuess int, opts cds.Options, diam int, a *arena) (*Result, error) {
	if kGuess < 1 {
		return nil, fmt.Errorf("cdsdist: connectivity guess %d < 1", kGuess)
	}
	r := newRun(g, kGuess, opts, diam, a)
	if err := r.execute(); err != nil {
		return nil, err
	}
	return &Result{Packing: r.buildPacking(), Meter: r.meter}, nil
}

// Pack removes the connectivity-guess assumption with the try-and-error
// loop of Remark 3.1, testing each guess's outcome with the distributed
// tester of Appendix E and keeping the passing packing of maximum size.
// All testing rounds are added to the returned meter. Every guess runs
// in one arena, allocated at the first and largest guess, and is tested
// by one tester.Checker.
func Pack(g *graph.Graph, opts cds.Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("cdsdist: empty graph")
	}
	opts = opts.Normalize()
	diam := dist.ApproxD(g)
	var (
		best    *Result
		total   sim.Meter
		a       arena
		checker = tester.NewChecker(g)
		classOf = make([][]int32, n)
	)
	for guess := n; guess >= 1; guess /= 2 {
		res, err := packWithGuess(g, guess, opts, diam, &a)
		if err != nil {
			return nil, err
		}
		total.Add(&res.Meter)
		check.ClassesInto(classOf, res.Packing.Trees)
		tr, err := checker.Check(classOf, res.Packing.Stats.Classes)
		if err != nil {
			return nil, err
		}
		total.Add(&tr.Meter)
		if tr.OK && (best == nil || res.Packing.Size() > best.Packing.Size()) {
			best = res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cdsdist: no guess produced a valid packing (graph disconnected?)")
	}
	best.Meter = total
	return best, nil
}

// run is one guess of the protocol: the driver-visible header of a run
// over the arena that holds its state. Only information a node could
// know locally is read inside processes; the driver moves state between
// phases and charges barrier costs.
type run struct {
	*arena
	g       *graph.Graph
	n       int
	layers  int
	classes int
	opts    cds.Options
	meter   sim.Meter
	diam    int
	stats   cds.Stats
}

// arena is the memory one guess runs in: the engine with every node's
// outboxes, the per-node random streams, the class lists with their
// class rows, the per-class slabs, the phase node arrays and the
// matching state. Its arrays are sized by n, by n·3L (L depends on n
// alone), by the class count or by n·min(3L, classes), the most the
// class lists can hold; the class count only falls from guess to
// guess. So Pack runs every guess of its loop in one arena, allocated
// at the first and largest guess and reset for each guess after it.
// Nothing a returned Packing references lives in it.
type arena struct {
	eng   *sim.Engine   // reused across every phase of every guess
	procs []sim.Process // the current phase's processes, one per node

	// rngs[v] is node v's private randomness over pcgs[v], reseeded
	// per guess; propRngs[v] is its proposal stream over propPCGs[v],
	// which proposeStreams reseeds for every propose phase.
	pcgs     []rand.PCG
	rngs     []*rand.Rand
	propPCGs []rand.PCG
	propRngs []*rand.Rand

	// classOf[v][layer*3+typ] = class of that virtual node, -1 unassigned.
	classOf [][]int32
	virtual []int32 // classOf's backing
	// clsList[v] = sorted distinct classes with an assigned virtual node
	// at v in layers processed so far (the keys of the paper's old-node
	// sets). clsRows holds node v's class row, words 64-bit words in
	// which bit c is set iff c is in clsList[v]. A class's position in
	// the list is its ds.Index in the row, so the protocols' per-message
	// class lookup is a bit test and a popcount.
	clsList [][]int32
	words   int
	clsRows []uint64

	// Per-class state, one row per node parallel to its class list:
	// the floods' values, the component ids (phase A output), the
	// floods' dirty flags, the matching's blocked components, and the
	// BFS trees' parents (graph.TreeRoot at the class leader,
	// graph.TreeAbsent where the BFS never arrived) and depths.
	vals     slab[dist.Pair]
	compList slab[int64]
	dirty    slab[bool]
	blocked  slab[bool]
	parent   slab[int32]
	depth    slab[int32]

	floods []dist.MinFlood
	anns   []annNode
	scouts []scoutNode
	props  []proposeNode
	accs   []acceptNode
	bfs    []bfsClassNode
	// scoutPairs is the scratch in which a scoutNode collects the
	// scout pairs of one call; nodes run serially, so they share one.
	scoutPairs []candidate
	// heard marks the active components a scoutNode has heard in one
	// call, at bit class*n+compID; it shares it like scoutPairs and
	// clears its own bits before returning.
	heard     []uint64
	lists     [][]candidate // each type-2 node's bridging-graph list
	assigned  []bool        // type-2 nodes matched or assigned this layer
	hasMember []bool        // excess's per-class scratch
}

// slab is per-class state of every node: rows parallel to the class
// lists, carved from one backing array.
type slab[T any] struct {
	buf  []T
	rows [][]T
}

// newSlab returns a slab of n rows holding at most size entries
// together.
func newSlab[T any](n, size int) slab[T] {
	return slab[T]{buf: make([]T, size), rows: make([][]T, n)}
}

// carve re-slices s's rows to the class lists, zeroed.
func (s *slab[T]) carve(lists [][]int32) {
	buf := s.buf
	for v, cls := range lists {
		k := len(cls)
		s.rows[v], buf = buf[:k:k], buf[k:]
		clear(s.rows[v])
	}
}

// newStreams returns n generators, each over its own PCG; reseed
// them in place with reseed.
func newStreams(n int) ([]rand.PCG, []*rand.Rand) {
	pcgs, rngs := make([]rand.PCG, n), make([]*rand.Rand, n)
	for v := range rngs {
		rngs[v] = rand.New(&pcgs[v])
	}
	return pcgs, rngs
}

// reseed reseeds stream v of pcgs from ds.SplitSeed(seed, v): the
// draws ds.SplitRand(seed, v) would give.
func reseed(pcgs []rand.PCG, seed uint64) {
	for v := range pcgs {
		pcgs[v].Seed(ds.SplitSeed(seed, uint64(v)))
	}
}

// newRun readies the arena a for a guess of kGuess on g, allocating
// it at its first guess.
func newRun(g *graph.Graph, kGuess int, opts cds.Options, diam int, a *arena) *run {
	n := g.N()
	layers := cds.LayersFor(n)
	classes := int(opts.ClassFactor * float64(kGuess))
	if classes < 1 {
		classes = 1
	}
	if a.procs == nil {
		a.alloc(n, layers, min(3*layers, classes))
	}
	r := &run{
		arena:   a,
		g:       g,
		n:       n,
		layers:  layers,
		classes: classes,
		opts:    opts,
		stats:   cds.Stats{Guess: kGuess, Layers: layers, Classes: classes},
		diam:    diam,
	}
	reseed(a.pcgs, opts.Seed^(uint64(kGuess)*0x9e3779b97f4a7c15))
	for i := range a.virtual {
		a.virtual[i] = -1
	}
	for v := range a.clsList {
		a.clsList[v] = a.clsList[v][:0]
	}
	a.words = (classes + 63) / 64
	a.clsRows = ds.GrowClear(a.clsRows, n*a.words)
	a.heard = ds.GrowClear(a.heard, (classes*n+63)/64)
	return r
}

// alloc allocates the arena for n nodes, L = layers, and class lists of
// at most maxRow entries: min(3L, classes) at the guess it is allocated
// for, which bounds every smaller guess's lists too.
func (a *arena) alloc(n, layers, maxRow int) {
	a.procs = make([]sim.Process, n)
	a.pcgs, a.rngs = newStreams(n)
	a.propPCGs, a.propRngs = newStreams(n)
	a.virtual = make([]int32, n*layers*3)
	a.classOf = make([][]int32, n)
	a.clsList = make([][]int32, n)
	lists := make([]int32, n*maxRow)
	for v := 0; v < n; v++ {
		a.classOf[v] = a.virtual[v*layers*3 : (v+1)*layers*3 : (v+1)*layers*3]
		a.clsList[v] = lists[v*maxRow : v*maxRow : (v+1)*maxRow]
	}
	a.vals = newSlab[dist.Pair](n, n*maxRow)
	a.compList = newSlab[int64](n, n*maxRow)
	a.dirty = newSlab[bool](n, n*maxRow)
	a.blocked = newSlab[bool](n, n*maxRow)
	a.parent = newSlab[int32](n, n*maxRow)
	a.depth = newSlab[int32](n, n*maxRow)
	a.floods = make([]dist.MinFlood, n)
	a.anns = make([]annNode, n)
	a.scouts = make([]scoutNode, n)
	a.props = make([]proposeNode, n)
	a.accs = make([]acceptNode, n)
	a.bfs = make([]bfsClassNode, n)
	a.lists = make([][]candidate, n)
	a.assigned = make([]bool, n)
}

// row returns node v's class row.
func (a *arena) row(v int) []uint64 {
	return a.clsRows[v*a.words : (v+1)*a.words : (v+1)*a.words]
}

// addClass adds class c to node v's class list, kept sorted, and sets
// its bit in v's class row; it does nothing when v already holds c.
func (a *arena) addClass(v int, c int32) {
	row := a.row(v)
	bit := uint64(1) << (c & 63)
	if row[c>>6]&bit != 0 {
		return
	}
	row[c>>6] |= bit
	a.clsList[v] = slices.Insert(a.clsList[v], ds.Rank(row, c), c)
}

// carve re-carves every per-class slab, zeroed, to the class lists. The
// lists grow only after the jump start and after each layer's fold, so
// those are the only calls.
func (a *arena) carve() {
	a.vals.carve(a.clsList)
	a.compList.carve(a.clsList)
	a.dirty.carve(a.clsList)
	a.blocked.carve(a.clsList)
	a.parent.carve(a.clsList)
	a.depth.carve(a.clsList)
}

func (r *run) execute() error {
	// The paper assumes n and a 2-approximate D are known after an O(D)
	// BFS preprocessing (Section 2); charge it once.
	r.meter.Charge(r.diam)

	// Jump start: local random assignment of layers [0, half).
	half := int(r.opts.JumpStartFraction * float64(r.layers))
	if half < 1 {
		half = 1
	}
	if half > r.layers-1 {
		half = r.layers - 1
	}
	for v := 0; v < r.n; v++ {
		for layer := 0; layer < half; layer++ {
			for typ := 0; typ < 3; typ++ {
				c := int32(r.rngs[v].IntN(r.classes))
				r.classOf[v][layer*3+typ] = c
				r.addClass(v, c)
			}
		}
	}
	r.carve()

	for layer := half; layer < r.layers; layer++ {
		if err := r.assignLayer(layer); err != nil {
			return fmt.Errorf("cdsdist: layer %d: %w", layer, err)
		}
	}

	// Final component identification + per-class BFS tree extraction.
	if _, err := r.identifyComponents(); err != nil {
		return err
	}
	if err := r.extractTrees(); err != nil {
		return err
	}
	return nil
}

// assignLayer runs one layer of the recursive class assignment.
func (r *run) assignLayer(layer int) error {
	// Phase A: identify components of the old nodes (Appendix B.1). The
	// layer's other floods reuse the component flood's value rows, since
	// the class lists stay the same until the layer ends.
	vals, err := r.identifyComponents()
	if err != nil {
		return err
	}
	r.stats.ExcessComponents = append(r.stats.ExcessComponents, r.excess())

	// Types 1 and 3 of the new layer join random classes (local coins).
	for v := 0; v < r.n; v++ {
		r.classOf[v][layer*3+0] = int32(r.rngs[v].IntN(r.classes))
		r.classOf[v][layer*3+2] = int32(r.rngs[v].IntN(r.classes))
	}

	// Phase B: deactivate components already bridged by type-1 nodes
	// (Appendix B.2), then build each type-2 node's neighbor list of the
	// bridging graph via component announcements and type-3 scouting.
	lists, err := r.buildBridging(layer, vals)
	if err != nil {
		return err
	}

	// Phase C: O(log n) stages of randomized proposal matching
	// (Appendix B.3).
	matchedCount, err := r.matchStages(layer, lists, vals)
	if err != nil {
		return err
	}
	r.stats.MatchedPerLayer = append(r.stats.MatchedPerLayer, matchedCount)

	// Unmatched type-2 nodes join random classes (done inside
	// matchStages). Fold the new layer into the old-node sets.
	for v := 0; v < r.n; v++ {
		for typ := 0; typ < 3; typ++ {
			if c := r.classOf[v][layer*3+typ]; c >= 0 {
				r.addClass(v, c)
			}
		}
	}
	r.carve()
	return nil
}

// excess computes M_ell, the number of components beyond one per
// class that has members, from the component ids in compList
// (diagnostic only; no rounds charged). A component's id is its least
// member, so it has exactly one leader v with compList[v][i] == v.
func (r *run) excess() int {
	r.hasMember = ds.GrowClear(r.hasMember, r.classes)
	m := 0
	for v := 0; v < r.n; v++ {
		for i, c := range r.clsList[v] {
			if r.compList.rows[v][i] == int64(v) {
				m++
			}
			if !r.hasMember[c] {
				r.hasMember[c] = true
				m--
			}
		}
	}
	return m
}
