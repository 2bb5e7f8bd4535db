// Package tester implements the randomized CDS-packing test of Appendix
// E (Lemma E.1): given a partition of (virtual) nodes into classes, it
// checks that every class is a connected dominating set, centrally in
// O(m log n) steps or distributedly in O~(min{d', D + sqrt(n)}) rounds.
// The test is one-sided: valid packings always pass; an invalid packing
// is rejected w.h.p. (the connectivity half is randomized).
package tester

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/dist"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Result reports a test outcome and its cost.
type Result struct {
	// OK is true when the partition passed both tests.
	OK bool
	// DominationFailures counts (node, class) domination violations
	// found (centralized test only; the distributed test stops at one).
	DominationFailures int
	// ConnectivityFailures counts classes detected disconnected.
	ConnectivityFailures int
	// Meter is the distributed cost (zero for the centralized test).
	Meter sim.Meter
}

// CheckCentralized is the centralized test: every class must dominate
// the graph and induce a connected subgraph. classOf[v] lists the
// classes node v belongs to (a node may be in several classes, matching
// the paper's virtual-node partition projected to real nodes); classes
// is t. The predicate itself lives in internal/check (check.Partition),
// shared with the packer property sweeps; this wrapper adds the
// Result/meter shape the try-and-error loop consumes.
func CheckCentralized(g *graph.Graph, classOf [][]int32, classes int) (Result, error) {
	n := g.N()
	if len(classOf) != n {
		return Result{}, fmt.Errorf("tester: classOf has %d entries for %d nodes", len(classOf), n)
	}
	var res Result
	res.DominationFailures, res.ConnectivityFailures = check.Partition(g, classOf, classes)
	res.OK = res.DominationFailures == 0 && res.ConnectivityFailures == 0
	return res, nil
}

// CheckDistributed is the distributed test of Appendix E run in the
// V-CONGEST model. Each node knows its own class memberships; the test
// performs the domination phase (one announcement round plus failure
// flooding) and the connectivity phase (component identification via
// Theorem B.2 flooding, then Θ(log n) rounds of random-class component-
// id announcements to detect split classes, then failure flooding).
//
// For simplicity each phase handles one class at a time when a node has
// multiple memberships; the meter is charged for all slots, matching
// the paper's meta-round accounting. One engine runs the domination
// phase and, reset, every class's announcements; one runner floods
// every class's components. CheckDistributed returns an error if
// classOf does not have one entry per node or names a class outside
// [0, classes). It is the one-shot form of a Checker.
func CheckDistributed(g *graph.Graph, classOf [][]int32, classes int) (Result, error) {
	return NewChecker(g).Check(classOf, classes)
}

// Checker runs CheckDistributed's test on one graph call after call,
// reusing its engine, its flood runner, its node arrays and rows, and
// the graph's diameter bound. cdsdist.Pack holds one across the guesses
// of Remark 3.1's loop. Every call returns what CheckDistributed
// returns on the same input.
type Checker struct {
	g     *graph.Graph
	diam  int // dist.ApproxD(g): the O(D) charge of one failure flood
	eng   *sim.Engine
	flood *dist.ComponentMinRunner
	procs []sim.Process

	doms   []domNode
	seen   []bool // the domination rows, classes per node
	conns  []connNode
	member []bool
	edgeOK []bool
	values []dist.Pair
}

// NewChecker returns a checker for partitions of g's nodes.
func NewChecker(g *graph.Graph) *Checker {
	n := g.N()
	return &Checker{
		g:      g,
		diam:   dist.ApproxD(g),
		flood:  dist.NewComponentMinRunner(g, sim.VCongest),
		procs:  make([]sim.Process, n),
		doms:   make([]domNode, n),
		conns:  make([]connNode, n),
		member: make([]bool, n),
		edgeOK: make([]bool, g.M()),
		values: make([]dist.Pair, n),
	}
}

// Check tests the partition classOf of the checker's graph into the
// given number of classes; see CheckDistributed.
func (c *Checker) Check(classOf [][]int32, classes int) (Result, error) {
	g := c.g
	n := g.N()
	if len(classOf) != n {
		return Result{}, fmt.Errorf("tester: classOf has %d entries for %d nodes", len(classOf), n)
	}
	for v, mine := range classOf {
		for _, cl := range mine {
			if cl < 0 || int(cl) >= classes {
				return Result{}, fmt.Errorf("tester: node %d's class %d is outside [0, %d)", v, cl, classes)
			}
		}
	}
	var res Result
	res.OK = true

	// --- Domination phase: every node announces its memberships (one
	// slot per membership); every node checks it saw all classes.
	c.seen = ds.GrowClear(c.seen, n*classes)
	seen := c.seen
	for v := range c.doms {
		c.doms[v] = domNode{mine: classOf[v], seen: seen[:classes:classes], missing: classes}
		seen = seen[classes:]
		c.procs[v] = &c.doms[v]
	}
	if err := c.phase(&res.Meter); err != nil {
		return res, fmt.Errorf("tester: domination phase: %w", err)
	}
	for v := range c.doms {
		if c.doms[v].missing > 0 {
			res.DominationFailures++
		}
	}
	// Failure flooding costs O(D); charge it.
	res.Meter.Charge(c.diam)
	if res.DominationFailures > 0 {
		res.OK = false
		return res, nil // the paper aborts after a domination failure
	}

	// --- Connectivity phase, per class: identify components of the
	// class subgraph, then have members exchange component ids; a node
	// seeing two different component ids of the same class detects a
	// disconnect. (With domination already verified, every node of the
	// graph neighbors every class, so a class split into components is
	// detected by some node w.h.p. — here deterministically, because we
	// announce every class membership rather than sampling; the paper's
	// Θ(log n) random sampling meets the same bound when nodes carry
	// O(log n) memberships, which is the regime of Lemma 4.6.)
	member, edgeOK, values := c.member, c.edgeOK, c.values
	for v := range c.conns {
		c.procs[v] = &c.conns[v]
	}
	for cl := 0; cl < classes; cl++ {
		any := false
		for v := 0; v < n; v++ {
			member[v] = false
			for _, cc := range classOf[v] {
				if int(cc) == cl {
					member[v] = true
					any = true
				}
			}
		}
		if !any {
			res.ConnectivityFailures++
			res.OK = false
			continue
		}
		for id := range edgeOK {
			u, v := g.Endpoints(id)
			edgeOK[id] = member[u] && member[v]
		}
		// Theorem B.2 component identification (restricted flooding).
		for v := 0; v < n; v++ {
			if member[v] {
				values[v] = dist.Pair{A: int64(v), B: 0}
			} else {
				values[v] = dist.Pair{A: int64(n), B: 0} // inert
			}
		}
		ids, m, err := c.flood.ComponentMin(edgeOK, values)
		if err != nil {
			return res, err
		}
		res.Meter.Add(&m)
		// Announcement round: members broadcast component ids; any node
		// hearing two distinct ids for class cl detects a disconnect.
		for v := range c.conns {
			cid := int64(-1)
			if member[v] {
				cid = ids[v].A
			}
			c.conns[v] = connNode{compID: cid}
		}
		if err := c.phase(&res.Meter); err != nil {
			return res, fmt.Errorf("tester: connectivity phase: %w", err)
		}
		for v := range c.conns {
			if c.conns[v].detected {
				res.ConnectivityFailures++
				res.OK = false
				break
			}
		}
		res.Meter.Charge(c.diam) // failure flooding
	}
	return res, nil
}

// phase runs the processes in c.procs for one phase of at most four
// rounds on the checker's engine, built at the first phase and reset
// for every later one, and adds the phase's cost to m.
func (c *Checker) phase(m *sim.Meter) error {
	if c.eng == nil {
		eng, err := sim.NewEngine(c.g, sim.VCongest, c.procs)
		if err != nil {
			return err
		}
		c.eng = eng
	} else if err := c.eng.Reset(c.procs); err != nil {
		return err
	}
	if err := c.eng.RunPhase(4); err != nil {
		return err
	}
	m.Add(c.eng.Meter())
	return nil
}

// domNode announces this node's class memberships (one slot each) and
// counts the classes its closed neighborhood misses. The verdict,
// missing > 0, is read after the phase: a node that holds no class and
// hears nothing is never called after the first round.
type domNode struct {
	mine    []int32
	seen    []bool // seen[c]: class c is in the closed neighborhood
	missing int    // classes not seen yet
}

const (
	kindMembership = 10
	kindCompID     = 11
)

func (p *domNode) see(c int32) {
	if !p.seen[c] {
		p.seen[c] = true
		p.missing--
	}
}

func (p *domNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	switch ctx.PhaseRound() {
	case 0:
		for _, c := range p.mine {
			p.see(c)
			ctx.Broadcast(sim.Msg(kindMembership, int64(c)))
		}
		if len(p.mine) > 0 {
			return sim.Active
		}
	case 1:
		for d := range inbox.All() {
			if d.Msg.Kind == kindMembership {
				p.see(int32(d.Msg.F[0]))
			}
		}
	}
	return sim.Done
}

// connNode implements the detector-path scheme: members broadcast their
// component id; every node records the id it heard (its "witness") and
// re-broadcasts it; a node that ever sees two distinct ids for the class
// flags a disconnect. With domination verified, every node has a
// witness, so a split class always yields an adjacent pair with
// different witnesses — the middle of the paper's length-<=3 detector
// paths.
type connNode struct {
	compID   int64 // -1 for non-members
	heard    int64
	detected bool
}

func (p *connNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	switch ctx.PhaseRound() {
	case 0:
		p.heard = p.compID // members witness their own component
		if p.compID >= 0 {
			ctx.Broadcast(sim.Msg(kindCompID, p.compID))
			return sim.Active
		}
	case 1:
		for d := range inbox.All() {
			if d.Msg.Kind != kindCompID {
				continue
			}
			id := d.Msg.F[0]
			if p.heard >= 0 && id != p.heard {
				p.detected = true
			}
			p.heard = id
		}
		if p.heard >= 0 {
			ctx.Broadcast(sim.Msg(kindCompID, p.heard))
			return sim.Active
		}
	case 2:
		for d := range inbox.All() {
			if d.Msg.Kind == kindCompID && p.heard >= 0 && d.Msg.F[0] != p.heard {
				p.detected = true
			}
		}
	}
	return sim.Done
}

// MaxRoundsBudget returns the Lemma E.1 round bound for reporting:
// O~(min{d', D + sqrt(n)}) with d' <= n.
func MaxRoundsBudget(g *graph.Graph) int {
	n := float64(g.N())
	d := float64(dist.ApproxD(g))
	b := math.Min(n, d+math.Sqrt(n)*math.Log2(n+2))
	return int(b) + 1
}
