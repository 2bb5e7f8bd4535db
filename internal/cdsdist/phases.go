package cdsdist

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/cds"
	"repro/internal/dist"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// fieldBitsFor sizes the per-field message budget: node ids, class ids,
// and the 4·log2(n)-bit random proposal values (Section 2's random-id
// convention) must all fit — still O(log n) bits.
func (r *run) fieldBitsFor() int {
	b := 0
	for v := 1; v < r.n+2 || v < r.classes+2; v <<= 1 {
		b++
	}
	return 8 + 4*b + 4
}

// proposalRange returns the domain of random proposal values: n^4, the
// paper's 4·log n random-bits convention, distinct w.h.p.
func proposalRange(n int) int64 {
	v := int64(n) + 2
	return v * v * v * v
}

// runPhase executes one protocol phase on the processes in r.procs,
// reusing the arena's engine across all phases of every guess (every
// phase ends quiescent, so there is never message carry-over to
// preserve).
func (r *run) runPhase(maxRounds int) error {
	if r.eng == nil {
		eng, err := sim.NewEngine(r.g, sim.VCongest, r.procs, sim.WithMaxFieldBits(r.fieldBitsFor()))
		if err != nil {
			return err
		}
		r.eng = eng
	} else if err := r.eng.Reset(r.procs, sim.WithMaxFieldBits(r.fieldBitsFor())); err != nil {
		return err
	}
	if err := r.eng.RunPhase(maxRounds); err != nil {
		return err
	}
	r.meter.Add(r.eng.Meter())
	// Each phase boundary models a termination-detection convergecast
	// over the preprocessing BFS tree.
	r.meter.Charge(r.diam)
	return nil
}

// --- Restricted flooding (Theorem B.2) -----------------------------------

// flood runs dist.MinFlood with the given message kind over every
// class component: vals, one row per node parallel to its class list,
// holds the seeds and, once flood returns, each component's least seed.
func (r *run) flood(kind uint8, vals [][]dist.Pair) error {
	for v := range r.floods {
		r.floods[v] = dist.MinFlood{Kind: kind, Cls: r.clsList[v], Row: r.row(v), Val: vals[v], Dirty: r.dirty.rows[v]}
		r.procs[v] = &r.floods[v]
	}
	return r.runPhase(4*r.n + 8)
}

// --- Phase A: component identification --------------------------------

// identifyComponents refreshes r.compList for the current old-node
// sets: each node seeds (v, 0) for every class it holds, and the flood
// leaves each component's least member id. It returns the flood's value
// rows for reuse.
func (r *run) identifyComponents() ([][]dist.Pair, error) {
	vals := r.vals.rows
	for v, row := range vals {
		for i := range row {
			row[i] = dist.Pair{A: int64(v)}
		}
	}
	if err := r.flood(kindComp, vals); err != nil {
		return nil, fmt.Errorf("component identification: %w", err)
	}
	for v, row := range vals {
		for i, x := range row {
			r.compList.rows[v][i] = x.A
		}
	}
	return vals, nil
}

// --- Phase B: deactivation and bridging lists --------------------------

// candidate is one bridging-graph neighbor of a type-2 node: an active
// component, identified by (class, compID).
type candidate struct {
	class  int32
	compID int64
}

// annNode broadcasts this node's (class, compID) pairs; type-1 new nodes
// that see two components of their class reply with a connector message;
// old nodes hearing a connector for their (class, component) mark it
// deactivated locally by writing (0, 0) into deact, the seeds of the
// component-wide deactivation flood (dist.NoValue leaves it active). All
// collection steps are set-valued, so the sorted announcement order is
// interchangeable with any other.
type annNode struct {
	cls        []int32     // sorted classes with old nodes here
	row        []uint64    // the class row of cls
	comp       []int64     // component ids parallel to cls
	deact      []dist.Pair // parallel to cls
	type1Class int32
	seen       [2]int64
}

func (p *annNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	switch ctx.PhaseRound() {
	case 0:
		for i, c := range p.cls {
			p.deact[i] = dist.NoValue
			ctx.Broadcast(sim.Msg(kindCompAnn, int64(c), p.comp[i], 1))
		}
		if len(p.cls) > 0 {
			return sim.Active
		}
	case 1:
		// Type-1 role: collect components of own class; if >= 2, shout
		// the connector symbol for that class. Two distinct ids suffice,
		// so a two-slot set is enough.
		nseen := 0
		note := func(id int64) {
			if nseen > 0 && p.seen[0] == id {
				return
			}
			if nseen > 1 && p.seen[1] == id {
				return
			}
			if nseen < 2 {
				p.seen[nseen] = id
			}
			nseen++
		}
		if i := ds.Index(p.row, p.type1Class); i >= 0 {
			note(p.comp[i])
		}
		for d := range inbox.All() {
			if d.Msg.Kind == kindCompAnn && int32(d.Msg.F[0]) == p.type1Class {
				note(d.Msg.F[1])
			}
		}
		if nseen >= 2 {
			ctx.Broadcast(sim.Msg(kindDeact, int64(p.type1Class)))
			return sim.Active
		}
	case 2:
		for d := range inbox.All() {
			if d.Msg.Kind != kindDeact {
				continue
			}
			if i := ds.Index(p.row, int32(d.Msg.F[0])); i >= 0 {
				p.deact[i] = dist.Pair{}
			}
		}
	}
	return sim.Done
}

// scoutNode implements Appendix B.2's bridging-graph construction: old
// nodes re-announce (class, compID, activity); each type-3 new node w
// forms its message m_w; each type-2 new node v assembles its neighbor
// list List_v from active announced components and type-3 messages.
// List order is the first-delivery order of the active announcements
// (sender-major); every collection step in between is set-valued. The
// arena keeps each node's scoutNode across layers and guesses, so
// seenComp, annHeard and list restart at length 0 on their storage.
type scoutNode struct {
	cls        []int32     // sorted classes with old nodes here
	row        []uint64    // the class row of cls
	comp       []int64     // component ids parallel to cls
	deact      []dist.Pair // parallel to cls: dist.NoValue while active
	type3Class int32

	seenComp []int64      // distinct type-3 component ids heard
	annHeard []candidate  // distinct active components heard, in first-delivery order
	scouts   *[]candidate // the arena's scratch for one call's scout (class, id) pairs
	heard    []uint64     // the arena's scratch: bit class*n+compID marks annHeard's pairs
	n        int
	list     []candidate
}

// hearActive records an active component announcement, once.
func (p *scoutNode) hearActive(cand candidate) {
	if w, bit := p.heardAt(cand); p.heard[w]&bit == 0 {
		p.heard[w] |= bit
		p.annHeard = append(p.annHeard, cand)
	}
}

// heardAt returns cand's word and bit in heard. A component's id is its
// least member, so class*n+compID is a bit of its own.
func (p *scoutNode) heardAt(cand candidate) (int, uint64) {
	k := int(cand.class)*p.n + int(cand.compID)
	return k >> 6, 1 << (k & 63)
}

func (p *scoutNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	switch ctx.PhaseRound() {
	case 0:
		for i, c := range p.cls {
			act := int64(0)
			if p.deact[i] == dist.NoValue {
				act = 1
			}
			ctx.Broadcast(sim.Msg(kindCompAnn, int64(c), p.comp[i], act))
		}
		if len(p.cls) > 0 {
			return sim.Active
		}
	case 1:
		// Gather announcements; type-3 role constructs m_w.
		noteComp := func(id int64) {
			for _, have := range p.seenComp {
				if have == id {
					return
				}
			}
			p.seenComp = append(p.seenComp, id)
		}
		if i := ds.Index(p.row, p.type3Class); i >= 0 {
			noteComp(p.comp[i])
		}
		for d := range inbox.All() {
			if d.Msg.Kind != kindCompAnn {
				continue
			}
			c := int32(d.Msg.F[0])
			if d.Msg.F[2] == 1 {
				p.hearActive(candidate{class: c, compID: d.Msg.F[1]})
			}
			if c == p.type3Class {
				noteComp(d.Msg.F[1])
			}
		}
		// Also count own active components as heard (virtual adjacency
		// within the same real node).
		for i, c := range p.cls {
			if p.deact[i] == dist.NoValue {
				p.hearActive(candidate{class: c, compID: p.comp[i]})
			}
		}
		for _, cand := range p.annHeard {
			w, bit := p.heardAt(cand)
			p.heard[w] &^= bit
		}
		switch {
		case len(p.seenComp) == 0:
			// empty m_w
		case len(p.seenComp) == 1:
			ctx.Broadcast(sim.Msg(kindScout, int64(p.type3Class), p.seenComp[0]))
			return sim.Active
		default:
			ctx.Broadcast(sim.Msg(kindScout, int64(p.type3Class), connectorSymbol))
			return sim.Active
		}
	case 2:
		// Type-2 role: build List_v per Appendix B.2 from the distinct
		// scout (class, id) pairs heard.
		scouts := (*p.scouts)[:0]
		for d := range inbox.All() {
			if d.Msg.Kind != kindScout {
				continue
			}
			if s := (candidate{class: int32(d.Msg.F[0]), compID: d.Msg.F[1]}); !slices.Contains(scouts, s) {
				scouts = append(scouts, s)
			}
		}
		*p.scouts = scouts
		// A component C of class i joins List_v iff v heard an active
		// announcement of C and some scout message for class i names a
		// component != C (or the connector symbol).
		for _, cand := range p.annHeard {
			for _, s := range scouts {
				if s.class == cand.class && (s.compID == connectorSymbol || s.compID != cand.compID) {
					p.list = append(p.list, cand)
					break
				}
			}
		}
	}
	return sim.Done
}

// buildBridging runs phases B of a layer and returns each type-2 node's
// bridging-graph neighbor list. deact holds a row per node parallel to
// its class list, which the announcements overwrite.
func (r *run) buildBridging(layer int, deact [][]dist.Pair) ([][]candidate, error) {
	// B.1: announcements + type-1 connector detection.
	for v := range r.anns {
		r.anns[v] = annNode{
			cls:        r.clsList[v],
			row:        r.row(v),
			comp:       r.compList.rows[v],
			deact:      deact[v],
			type1Class: r.classOf[v][layer*3+0],
		}
		r.procs[v] = &r.anns[v]
	}
	if err := r.runPhase(8); err != nil {
		return nil, fmt.Errorf("deactivation detection: %w", err)
	}

	// B.2: flood deactivation component-wide, seeded from the type-1
	// verdicts.
	if err := r.flood(kindDeact, deact); err != nil {
		return nil, fmt.Errorf("deactivation flood: %w", err)
	}

	// B.3: re-announce with activity; scouts; type-2 lists.
	for v := range r.scouts {
		sc := &r.scouts[v]
		*sc = scoutNode{
			cls:        r.clsList[v],
			row:        r.row(v),
			comp:       r.compList.rows[v],
			deact:      deact[v],
			type3Class: r.classOf[v][layer*3+2],
			seenComp:   sc.seenComp[:0],
			annHeard:   sc.annHeard[:0],
			scouts:     &r.scoutPairs,
			heard:      r.heard,
			n:          r.n,
			list:       sc.list[:0],
		}
		r.procs[v] = sc
	}
	if err := r.runPhase(8); err != nil {
		return nil, fmt.Errorf("bridging construction: %w", err)
	}
	for v := range r.lists {
		r.lists[v] = r.scouts[v].list
	}
	return r.lists, nil
}

// --- Phase C: matching stages ------------------------------------------

// proposeNode: stage round 1 — unmatched type-2 nodes propose to the
// listed component with the largest random value; old nodes keep, per
// component, the least proposal key (−value, −proposer) they hear, so
// the minimum is the highest proposal with ties to the higher proposer
// id. The min-merge is order-insensitive, so collection order is
// immaterial; best is the proposal flood's seed array, indexed by
// position in the sorted class list.
type proposeNode struct {
	rng      *rand.Rand // this node's proposal stream for the phase
	row      []uint64   // the node's class row
	comp     []int64
	blocked  []bool      // parallel: component here already matched
	best     []dist.Pair // parallel: least key heard, dist.NoValue if none
	list     []candidate // nil when matched or empty
	proposal candidate   // what this node proposed to
	propVal  int64
	proposed bool
}

func (p *proposeNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	switch ctx.PhaseRound() {
	case 0:
		for i := range p.best {
			p.best[i] = dist.NoValue
		}
		if len(p.list) > 0 {
			bestIdx, bestVal := 0, int64(-1)
			span := proposalRange(ctx.N())
			for i := range p.list {
				v := p.rng.Int64N(span) // 4·log n random bits
				if v > bestVal {
					bestVal, bestIdx = v, i
				}
			}
			p.proposal = p.list[bestIdx]
			p.propVal = bestVal
			p.proposed = true
			ctx.Broadcast(sim.Msg(kindPropose, int64(p.proposal.class), p.proposal.compID, bestVal))
			return sim.Active
		}
	case 1:
		for d := range inbox.All() {
			if d.Msg.Kind != kindPropose {
				continue
			}
			i := ds.Index(p.row, int32(d.Msg.F[0]))
			if i < 0 || p.blocked[i] || p.comp[i] != d.Msg.F[1] {
				continue // not in this component, or matched earlier
			}
			if key := (dist.Pair{A: -d.Msg.F[2], B: -int64(d.From)}); key.Less(p.best[i]) {
				p.best[i] = key
			}
		}
	}
	return sim.Done
}

// acceptNode: after the component-wide proposal flood, old nodes
// broadcast the accepted proposal; type-2 nodes learn whether they were
// matched and prune their lists. The lost-collection is a set, so
// announcement order is immaterial.
type acceptNode struct {
	cls      []int32
	comp     []int64
	best     []dist.Pair // parallel: the flood's least key, dist.NoValue if none
	proposed bool
	proposal candidate
	propVal  int64
	matched  bool
	lost     []candidate // components that accepted someone else
}

func (p *acceptNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	switch ctx.PhaseRound() {
	case 0:
		sent := false
		for i, key := range p.best {
			if key == dist.NoValue {
				continue // no proposal reached this component
			}
			c := p.cls[i]
			val, winner := -key.A, -key.B
			// Self-acceptance: a proposer that is itself a member of the
			// winning component never hears its own broadcast.
			if p.proposed && p.proposal.class == c && p.proposal.compID == p.comp[i] &&
				val == p.propVal && winner == int64(ctx.ID()) {
				p.matched = true
			}
			ctx.Broadcast(sim.Msg(kindAccept, int64(c), p.comp[i], val, winner))
			sent = true
		}
		if sent {
			return sim.Active
		}
	case 1:
		for d := range inbox.All() {
			if d.Msg.Kind != kindAccept {
				continue
			}
			cand := candidate{class: int32(d.Msg.F[0]), compID: d.Msg.F[1]}
			val, winner := d.Msg.F[2], d.Msg.F[3]
			if p.proposed && cand == p.proposal && val == p.propVal && winner == int64(ctx.ID()) {
				p.matched = true
			} else if !slices.Contains(p.lost, cand) {
				p.lost = append(p.lost, cand)
			}
		}
	}
	return sim.Done
}

// matchStages runs the O(log n) Luby-style stages of Appendix B.3 and
// assigns classes to the type-2 virtual nodes of the layer. Returns the
// number matched through the bridging graph. best holds a row per node
// parallel to its class list, which every stage's proposals overwrite;
// the stages' per-node state lives in the arena.
func (r *run) matchStages(layer int, lists [][]candidate, best [][]dist.Pair) (int, error) {
	stages := 1
	for s := 1; s < r.n; s <<= 1 {
		stages++
	}
	matchedCount := 0
	assigned := r.assigned
	clear(assigned)
	blocked := r.blocked.rows
	props, accs := r.props, r.accs

	for stage := 0; stage < stages; stage++ {
		anyList := false
		for v := 0; v < r.n; v++ {
			if !assigned[v] && len(lists[v]) > 0 {
				anyList = true
				break
			}
		}
		if !anyList {
			break
		}
		// Stage round 1-2: propose and collect.
		rngs := r.proposeStreams(r.opts.Seed ^ uint64(layer*131+stage)<<10 ^ 0xabcd)
		for v := range props {
			var list []candidate
			if !assigned[v] {
				list = lists[v]
			}
			props[v] = proposeNode{
				rng:     rngs[v],
				row:     r.row(v),
				comp:    r.compList.rows[v],
				blocked: blocked[v],
				best:    best[v],
				list:    list,
			}
			r.procs[v] = &props[v]
		}
		if err := r.runPhase(8); err != nil {
			return matchedCount, fmt.Errorf("propose stage: %w", err)
		}

		// Component-wide best proposal per class (the Theorem B.2
		// aggregation of Appendix B.3).
		if err := r.flood(kindPropose, best); err != nil {
			return matchedCount, fmt.Errorf("proposal flood: %w", err)
		}

		// Accept round.
		for v := range accs {
			accs[v] = acceptNode{
				cls:      r.clsList[v],
				comp:     r.compList.rows[v],
				best:     best[v],
				proposed: props[v].proposed,
				proposal: props[v].proposal,
				propVal:  props[v].propVal,
				lost:     accs[v].lost[:0],
			}
			r.procs[v] = &accs[v]
		}
		if err := r.runPhase(8); err != nil {
			return matchedCount, fmt.Errorf("accept stage: %w", err)
		}

		for v := 0; v < r.n; v++ {
			// Members of components that accepted a proposal mark them
			// matched for all later stages.
			for i, key := range best[v] {
				if key != dist.NoValue {
					blocked[v][i] = true
				}
			}
			if assigned[v] {
				continue
			}
			if accs[v].matched {
				r.classOf[v][layer*3+1] = props[v].proposal.class
				assigned[v] = true
				matchedCount++
				continue
			}
			// Prune components that accepted other proposals.
			if lost := accs[v].lost; len(lost) > 0 {
				lists[v] = slices.DeleteFunc(lists[v], func(c candidate) bool { return slices.Contains(lost, c) })
			}
		}
	}

	// Unmatched type-2 nodes join random classes.
	for v := 0; v < r.n; v++ {
		if !assigned[v] {
			r.classOf[v][layer*3+1] = int32(r.rngs[v].IntN(r.classes))
		}
	}
	return matchedCount, nil
}

// proposeStreams reseeds each node's proposal stream for one propose
// phase, node v's from ds.SplitSeed(seed, v), and returns them.
func (r *run) proposeStreams(seed uint64) []*rand.Rand {
	reseed(r.propPCGs, seed)
	return r.propRngs
}

// --- Tree extraction ----------------------------------------------------

// bfsClassNode grows, for every class this node belongs to, a BFS tree
// from the class leader (the member whose id equals the component id).
// The parent rule ("first delivery for the class") picks the lowest-id
// neighbor at the previous BFS depth: deliveries arrive sender-major,
// and a sender broadcasts each class at most once per round, so the rule
// is insensitive to the per-sender broadcast order. It takes the parent
// from the sender, so it is not a min-flood.
type bfsClassNode struct {
	cls      []int32
	row      []uint64 // the class row of cls
	comp     []int64  // component ids parallel to cls
	parent   []int32  // graph.TreeRoot at the leader, graph.TreeAbsent until reached
	depth    []int32
	dirty    []bool
	hasDirty bool
	started  bool
}

func (p *bfsClassNode) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	if !p.started {
		p.started = true
		for i := range p.cls {
			p.parent[i] = graph.TreeAbsent
			if p.comp[i] == int64(ctx.ID()) {
				p.parent[i] = graph.TreeRoot
				p.dirty[i] = true
				p.hasDirty = true
			}
		}
	}
	for d := range inbox.All() {
		if d.Msg.Kind != kindBFS {
			continue
		}
		i := ds.Index(p.row, int32(d.Msg.F[0]))
		if i < 0 || p.parent[i] != graph.TreeAbsent {
			continue
		}
		p.parent[i] = d.From
		p.depth[i] = int32(d.Msg.F[1]) + 1
		p.dirty[i] = true
		p.hasDirty = true
	}
	if !p.hasDirty {
		return sim.Done
	}
	for i, c := range p.cls {
		if p.dirty[i] {
			ctx.Broadcast(sim.Msg(kindBFS, int64(c), int64(p.depth[i])))
			p.dirty[i] = false
		}
	}
	p.hasDirty = false
	return sim.Active
}

// extractTrees converts the final classes into dominating trees by
// per-class distributed BFS from the class leader, leaving r.parent.
// This realizes the paper's 0/1-weight MST step: a BFS forest of the
// 0-weight (same-class) subgraph is such an MST's 0-weight part.
func (r *run) extractTrees() error {
	for v := range r.bfs {
		r.bfs[v] = bfsClassNode{
			cls:    r.clsList[v],
			row:    r.row(v),
			comp:   r.compList.rows[v],
			parent: r.parent.rows[v],
			depth:  r.depth.rows[v],
			dirty:  r.dirty.rows[v],
		}
		r.procs[v] = &r.bfs[v]
	}
	if err := r.runPhase(4*r.n + 8); err != nil {
		return fmt.Errorf("tree extraction: %w", err)
	}
	return nil
}

// buildPacking assembles the cds.Packing from the per-node protocol
// outputs, keeping only classes whose trees are connected dominating
// trees (the others are reported through Stats.ValidClasses, exactly
// the quantity the try-and-error tester checks).
func (r *run) buildPacking() *cds.Packing {
	classMembers := make([][]int32, r.classes)
	for v := 0; v < r.n; v++ {
		for _, c := range r.clsList[v] {
			classMembers[c] = append(classMembers[c], int32(v))
		}
	}
	var (
		trees     []graph.WeightedTree
		treeClass []int
		parent    []int32 // reused until a tree takes it over
	)
	for c := 0; c < r.classes; c++ {
		members := classMembers[c]
		if len(members) == 0 {
			continue
		}
		if parent == nil {
			parent = make([]int32, r.n)
		}
		for v := range parent {
			parent[v] = graph.TreeAbsent
		}
		root := -1
		complete := true
		for _, v := range members {
			p := r.parent.rows[v][ds.Rank(r.row(int(v)), int32(c))]
			if p == graph.TreeAbsent {
				complete = false // BFS never reached v: class disconnected
				break
			}
			if p == graph.TreeRoot {
				if root >= 0 {
					complete = false // two roots: split class
					break
				}
				root = int(v)
			}
			parent[v] = p
		}
		if !complete || root < 0 {
			continue
		}
		tree, err := graph.TreeFromParents(root, parent)
		if err != nil || !tree.IsDominatingIn(r.g) {
			continue
		}
		parent = nil // the kept tree owns it
		trees = append(trees, graph.WeightedTree{Tree: tree, Weight: 1})
		treeClass = append(treeClass, c)
	}
	stats := r.stats
	stats.ValidClasses = len(trees)
	stats.MaxLoad = cds.FinalizeWeights(trees, r.n)
	return &cds.Packing{Trees: trees, TreeClass: treeClass, Classes: classMembers, Stats: stats}
}
