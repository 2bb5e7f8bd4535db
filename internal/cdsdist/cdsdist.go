// Package cdsdist implements the distributed fractional dominating-tree
// packing of Theorem 1.1 in the V-CONGEST model, following Appendix B.
//
// Each real node simulates the 3L virtual nodes of the paper's virtual
// graph internally; virtual-node messages are sent as slots of the real
// node's local broadcast, so the simulator's slot meter realizes exactly
// the paper's meta-round accounting (Θ(log n) real rounds per virtual
// round). The per-layer structure is the paper's: component
// identification by restricted flooding (Theorem B.2), deactivation by
// type-1 connectors, bridging-graph construction through type-3
// messages, and O(log n) stages of randomized proposal matching
// (Appendix B.3), followed by per-class distributed BFS tree extraction.
package cdsdist

import (
	"fmt"
	"math/rand/v2"

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
	kindComp    = 20 // (class, labelA, labelB): component-label flooding
	kindDeact   = 21 // (class, active01): deactivation flooding
	kindCompAnn = 22 // (class, compID, active01): component announcement
	kindScout   = 23 // (class, compID|-1 connector): type-3 message m_w
	kindPropose = 24 // (class, compID, value): type-2 proposal
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
// guess (the paper's 2-approximation assumption; Pack removes it).
func PackWithGuess(g *graph.Graph, kGuess int, opts cds.Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("cdsdist: empty graph")
	}
	if kGuess < 1 {
		return nil, fmt.Errorf("cdsdist: connectivity guess %d < 1", kGuess)
	}
	opts = opts.Normalize()
	r := newRun(g, kGuess, opts)
	if err := r.execute(); err != nil {
		return nil, err
	}
	return &Result{Packing: r.buildPacking(), Meter: r.meter}, nil
}

// Pack removes the connectivity-guess assumption with the try-and-error
// loop of Remark 3.1, testing each guess's outcome with the distributed
// tester of Appendix E and keeping the passing packing of maximum size.
// All testing rounds are added to the returned meter.
func Pack(g *graph.Graph, opts cds.Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("cdsdist: empty graph")
	}
	var best *Result
	var total sim.Meter
	for guess := n; guess >= 1; guess /= 2 {
		res, err := PackWithGuess(g, guess, opts)
		if err != nil {
			return nil, err
		}
		total.Add(&res.Meter)
		classOf := check.ClassesOf(n, res.Packing.Trees)
		tr, err := tester.CheckDistributed(g, classOf, res.Packing.Stats.Classes, opts.Seed+uint64(guess))
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

// run holds the global (driver-visible) protocol state: per-node class
// memberships and per-layer working state. Only information a node
// could know locally is read inside processes; the driver moves state
// between phases and charges barrier costs.
type run struct {
	g       *graph.Graph
	n       int
	layers  int
	classes int
	opts    cds.Options
	rngs    []*rand.Rand // per-node private randomness
	meter   sim.Meter
	diam    int
	eng     *sim.Engine // reused across all phases of the run

	// classOf[v][layer*3+typ] = class of that virtual node, -1 unassigned.
	classOf [][]int32
	// clsList[v] = sorted distinct classes with an assigned virtual node
	// at v in layers processed so far (the keys of the paper's old-node
	// sets). The flood protocols index their per-class state by position
	// in this list, so their per-message work is a short linear scan
	// instead of a map probe.
	clsList [][]int32
	// compList[v][i] = min real id in v's component of class clsList[v][i]
	// (phase A output), parallel to clsList.
	compList [][]int64
	// active[v][i] = component of class clsList[v][i] not deactivated
	// this layer, parallel to clsList.
	active [][]bool
	// stats
	stats cds.Stats
	// tree extraction output: parent[v][class] (real parent), -1 root.
	parent []map[int32]int64
}

// classIndex returns the position of c in the sorted class list, or -1.
// Lists hold O(log n) entries, so a linear scan beats hashing.
func classIndex(cls []int32, c int32) int {
	for i, x := range cls {
		if x == c {
			return i
		}
	}
	return -1
}

// insertClass adds c to the sorted class list if absent.
func insertClass(cls []int32, c int32) []int32 {
	i := 0
	for i < len(cls) && cls[i] < c {
		i++
	}
	if i < len(cls) && cls[i] == c {
		return cls
	}
	cls = append(cls, 0)
	copy(cls[i+1:], cls[i:])
	cls[i] = c
	return cls
}

func newRun(g *graph.Graph, kGuess int, opts cds.Options) *run {
	n := g.N()
	layers := cds.LayersFor(n)
	classes := int(opts.ClassFactor * float64(kGuess))
	if classes < 1 {
		classes = 1
	}
	r := &run{
		g:        g,
		n:        n,
		layers:   layers,
		classes:  classes,
		opts:     opts,
		rngs:     make([]*rand.Rand, n),
		classOf:  make([][]int32, n),
		clsList:  make([][]int32, n),
		compList: make([][]int64, n),
		active:   make([][]bool, n),
		parent:   make([]map[int32]int64, n),
		stats:    cds.Stats{Guess: kGuess, Layers: layers, Classes: classes},
		diam:     dist.ApproxD(g),
	}
	seedBase := opts.Seed ^ (uint64(kGuess) * 0x9e3779b97f4a7c15)
	for v := 0; v < n; v++ {
		r.rngs[v] = ds.SplitRand(seedBase, uint64(v))
		r.classOf[v] = make([]int32, layers*3)
		for i := range r.classOf[v] {
			r.classOf[v][i] = -1
		}
		r.parent[v] = make(map[int32]int64, 8)
	}
	return r
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
				r.clsList[v] = insertClass(r.clsList[v], c)
			}
		}
	}

	for layer := half; layer < r.layers; layer++ {
		if err := r.assignLayer(layer); err != nil {
			return fmt.Errorf("cdsdist: layer %d: %w", layer, err)
		}
	}

	// Final component identification + per-class BFS tree extraction.
	if err := r.identifyComponents(); err != nil {
		return err
	}
	if err := r.extractTrees(); err != nil {
		return err
	}
	return nil
}

// assignLayer runs one layer of the recursive class assignment.
func (r *run) assignLayer(layer int) error {
	// Phase A: identify components of the old nodes (Appendix B.1).
	if err := r.identifyComponents(); err != nil {
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
	lists, err := r.buildBridging(layer)
	if err != nil {
		return err
	}

	// Phase C: O(log n) stages of randomized proposal matching
	// (Appendix B.3).
	matchedCount, err := r.matchStages(layer, lists)
	if err != nil {
		return err
	}
	r.stats.MatchedPerLayer = append(r.stats.MatchedPerLayer, matchedCount)

	// Unmatched type-2 nodes join random classes (done inside
	// matchStages). Fold the new layer into the old-node sets.
	for v := 0; v < r.n; v++ {
		for typ := 0; typ < 3; typ++ {
			if c := r.classOf[v][layer*3+typ]; c >= 0 {
				r.clsList[v] = insertClass(r.clsList[v], c)
			}
		}
	}
	return nil
}

// excess computes M_ell, the number of components beyond one per
// class that has members, from the component ids in compList
// (diagnostic only; no rounds charged). A component's id is its least
// member, so it has exactly one leader v with compList[v][i] == v.
func (r *run) excess() int {
	hasMember := make([]bool, r.classes)
	m := 0
	for v := 0; v < r.n; v++ {
		for i, c := range r.clsList[v] {
			if r.compList[v][i] == int64(v) {
				m++
			}
			if !hasMember[c] {
				hasMember[c] = true
				m--
			}
		}
	}
	return m
}
