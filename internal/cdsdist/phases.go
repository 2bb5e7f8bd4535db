package cdsdist

import (
	"fmt"

	"repro/internal/cds"
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

// runPhase executes one protocol phase, reusing a single engine across
// all phases of the run (every phase ends quiescent, so there is never
// message carry-over to preserve; Reset reseeds the per-node streams).
func (r *run) runPhase(procs []sim.Process, seed uint64, maxRounds int) error {
	if r.eng == nil {
		eng, err := sim.NewEngine(r.g, sim.VCongest, procs, seed, sim.WithMaxFieldBits(r.fieldBitsFor()))
		if err != nil {
			return err
		}
		r.eng = eng
	} else if err := r.eng.Reset(procs, seed, sim.WithMaxFieldBits(r.fieldBitsFor())); err != nil {
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

// --- Phase A: component identification --------------------------------

// compFloodNode floods, per class this node belongs to, the minimum real
// node id within the class component (Theorem B.2 restricted flooding:
// class-c messages only merge across edges whose both endpoints carry
// class c, which is exactly class-c component adjacency). Per-class
// state is indexed by position in the sorted class list; min-merging is
// order-insensitive, so the sorted broadcast order leaves results
// identical to any other send order.
type compFloodNode struct {
	cls      []int32
	label    []int64
	dirty    []bool
	hasDirty bool
	started  bool
}

func (p *compFloodNode) Round(ctx *sim.Context, inbox []sim.Delivery) sim.Status {
	if !p.started {
		p.started = true
		id := int64(ctx.ID())
		for i := range p.cls {
			p.label[i] = id
			p.dirty[i] = true
		}
		p.hasDirty = len(p.cls) > 0
	}
	for _, d := range inbox {
		if d.Msg.Kind != kindComp {
			continue
		}
		i := classIndex(p.cls, int32(d.Msg.F[0]))
		if i < 0 {
			continue
		}
		if d.Msg.F[1] < p.label[i] {
			p.label[i] = d.Msg.F[1]
			p.dirty[i] = true
			p.hasDirty = true
		}
	}
	if !p.hasDirty {
		return sim.Done
	}
	for i, c := range p.cls {
		if p.dirty[i] {
			ctx.Broadcast(sim.Msg(kindComp, int64(c), p.label[i]))
			p.dirty[i] = false
		}
	}
	p.hasDirty = false
	return sim.Active
}

// identifyComponents refreshes r.compList for the current
// old-node sets. The per-node state slices come from two shared backing
// arrays, so the whole phase costs O(1) allocations.
func (r *run) identifyComponents() error {
	total := 0
	for v := 0; v < r.n; v++ {
		total += len(r.clsList[v])
	}
	labelBacking := make([]int64, total)
	dirtyBacking := make([]bool, total)
	procs := make([]sim.Process, r.n)
	nodes := make([]*compFloodNode, r.n)
	pos := 0
	for v := 0; v < r.n; v++ {
		k := len(r.clsList[v])
		nodes[v] = &compFloodNode{
			cls:   r.clsList[v],
			label: labelBacking[pos : pos+k : pos+k],
			dirty: dirtyBacking[pos : pos+k : pos+k],
		}
		pos += k
		procs[v] = nodes[v]
	}
	if err := r.runPhase(procs, r.opts.Seed^0xc0ffee, 4*r.n+8); err != nil {
		return fmt.Errorf("component identification: %w", err)
	}
	for v := 0; v < r.n; v++ {
		r.compList[v] = nodes[v].label
	}
	return nil
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
// deactivated locally (flooded component-wide in the next step). All
// collection steps are set-valued, so the sorted announcement order is
// interchangeable with any other.
type annNode struct {
	cls        []int32 // sorted classes with old nodes here
	comp       []int64 // component ids parallel to cls
	type1Class int32
	round      int
	deact      []bool // parallel to cls: component deactivated locally
	seen       [2]int64
}

func (p *annNode) Round(ctx *sim.Context, inbox []sim.Delivery) sim.Status {
	switch p.round {
	case 0:
		p.round++
		for i, c := range p.cls {
			ctx.Broadcast(sim.Msg(kindCompAnn, int64(c), p.comp[i], 1))
		}
		if len(p.cls) > 0 {
			return sim.Active
		}
	case 1:
		p.round++
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
		if i := classIndex(p.cls, p.type1Class); i >= 0 {
			note(p.comp[i])
		}
		for _, d := range inbox {
			if d.Msg.Kind == kindCompAnn && int32(d.Msg.F[0]) == p.type1Class {
				note(d.Msg.F[1])
			}
		}
		if nseen >= 2 {
			ctx.Broadcast(sim.Msg(kindDeact, int64(p.type1Class)))
			return sim.Active
		}
	case 2:
		p.round++
		for _, d := range inbox {
			if d.Msg.Kind != kindDeact {
				continue
			}
			if i := classIndex(p.cls, int32(d.Msg.F[0])); i >= 0 {
				p.deact[i] = true
			}
		}
	}
	return sim.Done
}

// deactFloodNode floods the deactivation bit component-wide (restricted
// flooding again: class-c adjacency is component adjacency). Flag
// merging is order-insensitive, like the component flood.
type deactFloodNode struct {
	cls      []int32
	deact    []bool
	dirty    []bool
	hasDirty bool
	started  bool
}

func (p *deactFloodNode) Round(ctx *sim.Context, inbox []sim.Delivery) sim.Status {
	if !p.started {
		p.started = true
		for i := range p.cls {
			if p.deact[i] {
				p.dirty[i] = true
				p.hasDirty = true
			}
		}
	}
	for _, d := range inbox {
		if d.Msg.Kind != kindDeact {
			continue
		}
		i := classIndex(p.cls, int32(d.Msg.F[0]))
		if i >= 0 && !p.deact[i] {
			p.deact[i] = true
			p.dirty[i] = true
			p.hasDirty = true
		}
	}
	if !p.hasDirty {
		return sim.Done
	}
	for i, c := range p.cls {
		if p.dirty[i] {
			ctx.Broadcast(sim.Msg(kindDeact, int64(c)))
			p.dirty[i] = false
		}
	}
	p.hasDirty = false
	return sim.Active
}

// scoutNode implements Appendix B.2's bridging-graph construction: old
// nodes re-announce (class, compID, activity); each type-3 new node w
// forms its message m_w; each type-2 new node v assembles its neighbor
// list List_v from active announced components and type-3 messages.
// List order follows delivery order (sender-major), as in the original
// map-based version; every collection step in between is set-valued.
type scoutNode struct {
	cls        []int32 // sorted classes with old nodes here
	comp       []int64 // component ids parallel to cls
	active     []bool  // parallel to cls
	classes    int
	type3Class int32
	type2Class int32 // unused by the protocol; kept for symmetry
	round      int

	// scratch
	seenComp []int64     // distinct type-3 component ids heard
	annHeard []candidate // active components heard (class, compID)
	list     []candidate
}

func (p *scoutNode) Round(ctx *sim.Context, inbox []sim.Delivery) sim.Status {
	switch p.round {
	case 0:
		p.round++
		for i, c := range p.cls {
			act := int64(0)
			if p.active[i] {
				act = 1
			}
			ctx.Broadcast(sim.Msg(kindCompAnn, int64(c), p.comp[i], act))
		}
		if len(p.cls) > 0 {
			return sim.Active
		}
	case 1:
		p.round++
		// Gather announcements; type-3 role constructs m_w.
		noteComp := func(id int64) {
			for _, have := range p.seenComp {
				if have == id {
					return
				}
			}
			p.seenComp = append(p.seenComp, id)
		}
		if i := classIndex(p.cls, p.type3Class); i >= 0 {
			noteComp(p.comp[i])
		}
		for _, d := range inbox {
			if d.Msg.Kind != kindCompAnn {
				continue
			}
			c := int32(d.Msg.F[0])
			if d.Msg.F[2] == 1 {
				p.annHeard = append(p.annHeard, candidate{class: c, compID: d.Msg.F[1]})
			}
			if c == p.type3Class {
				noteComp(d.Msg.F[1])
			}
		}
		// Also count own active components as heard (virtual adjacency
		// within the same real node).
		for i, c := range p.cls {
			if p.active[i] {
				p.annHeard = append(p.annHeard, candidate{class: c, compID: p.comp[i]})
			}
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
		p.round++
		// Type-2 role: build List_v per Appendix B.2. Scout messages are
		// bucketed per class; each bucket is a small distinct-id set.
		scouts := make([][]int64, p.classes)
		for _, d := range inbox {
			if d.Msg.Kind != kindScout {
				continue
			}
			c := int32(d.Msg.F[0])
			if c < 0 || int(c) >= p.classes {
				continue
			}
			id := d.Msg.F[1]
			dup := false
			for _, have := range scouts[c] {
				if have == id {
					dup = true
					break
				}
			}
			if !dup {
				scouts[c] = append(scouts[c], id)
			}
		}
		// A component C of class i joins List_v iff v heard an active
		// announcement of C and some scout message for class i names a
		// component != C (or the connector symbol). First occurrence
		// order of annHeard is preserved, as before.
		for hi, cand := range p.annHeard {
			dup := false
			for _, prev := range p.annHeard[:hi] {
				if prev == cand {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			for _, id := range scouts[cand.class] {
				if id == connectorSymbol || id != cand.compID {
					p.list = append(p.list, cand)
					break
				}
			}
		}
	}
	return sim.Done
}

// buildBridging runs phases B of a layer and returns each type-2 node's
// bridging-graph neighbor list.
func (r *run) buildBridging(layer int) ([][]candidate, error) {
	// B.1: announcements + type-1 connector detection.
	total := 0
	for v := 0; v < r.n; v++ {
		total += len(r.clsList[v])
	}
	annDeact := make([]bool, total)
	anns := make([]*annNode, r.n)
	procs := make([]sim.Process, r.n)
	pos := 0
	for v := 0; v < r.n; v++ {
		k := len(r.clsList[v])
		anns[v] = &annNode{
			cls:        r.clsList[v],
			comp:       r.compList[v],
			type1Class: r.classOf[v][layer*3+0],
			deact:      annDeact[pos : pos+k : pos+k],
		}
		pos += k
		procs[v] = anns[v]
	}
	if err := r.runPhase(procs, r.opts.Seed^uint64(layer)<<8^0xdead, 8); err != nil {
		return nil, fmt.Errorf("deactivation detection: %w", err)
	}

	// B.2: flood deactivation component-wide, seeded from the type-1
	// verdicts (same class indexing, so the flags carry over directly).
	dirtyBacking := make([]bool, total)
	floods := make([]*deactFloodNode, r.n)
	pos = 0
	for v := 0; v < r.n; v++ {
		k := len(r.clsList[v])
		floods[v] = &deactFloodNode{
			cls:   r.clsList[v],
			deact: anns[v].deact,
			dirty: dirtyBacking[pos : pos+k : pos+k],
		}
		pos += k
		procs[v] = floods[v]
	}
	if err := r.runPhase(procs, r.opts.Seed^uint64(layer)<<8^0xbeef, 4*r.n+8); err != nil {
		return nil, fmt.Errorf("deactivation flood: %w", err)
	}
	for v := 0; v < r.n; v++ {
		active := r.active[v][:0]
		for i := range r.clsList[v] {
			active = append(active, !floods[v].deact[i])
		}
		r.active[v] = active
	}

	// B.3: re-announce with activity; scouts; type-2 lists.
	scouts := make([]*scoutNode, r.n)
	for v := 0; v < r.n; v++ {
		scouts[v] = &scoutNode{
			cls:        r.clsList[v],
			comp:       r.compList[v],
			active:     r.active[v],
			classes:    r.classes,
			type3Class: r.classOf[v][layer*3+2],
			type2Class: r.classOf[v][layer*3+1],
		}
		procs[v] = scouts[v]
	}
	if err := r.runPhase(procs, r.opts.Seed^uint64(layer)<<8^0xfeed, 8); err != nil {
		return nil, fmt.Errorf("bridging construction: %w", err)
	}
	lists := make([][]candidate, r.n)
	for v := 0; v < r.n; v++ {
		lists[v] = scouts[v].list
	}
	return lists, nil
}

// --- Phase C: matching stages ------------------------------------------

// proposeNode: stage round 1 — unmatched type-2 nodes propose to the
// listed component with the largest random value; old nodes record the
// best proposal they hear for each of their components. The best-map is
// a max-merge (ties to the higher proposer id), so collection order is
// immaterial; state is indexed by position in the sorted class list.
type proposeNode struct {
	cls      []int32
	comp     []int64
	blocked  []bool      // parallel: component here already matched
	list     []candidate // nil when matched or empty
	proposal candidate   // what this node proposed to
	propVal  int64
	proposed bool
	round    int
	// best proposal per class heard by this old node: (value, proposer).
	best    [][2]int64
	hasBest []bool
}

func (p *proposeNode) Round(ctx *sim.Context, inbox []sim.Delivery) sim.Status {
	switch p.round {
	case 0:
		p.round++
		if len(p.list) > 0 {
			bestIdx, bestVal := 0, int64(-1)
			span := proposalRange(ctx.N())
			for i := range p.list {
				v := ctx.Rand().Int64N(span) // 4·log n random bits
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
		p.round++
		for _, d := range inbox {
			if d.Msg.Kind != kindPropose {
				continue
			}
			i := classIndex(p.cls, int32(d.Msg.F[0]))
			if i < 0 || p.blocked[i] || p.comp[i] != d.Msg.F[1] {
				continue // not in this component, or matched earlier
			}
			val, from := d.Msg.F[2], int64(d.From)
			cur := p.best[i]
			if !p.hasBest[i] || val > cur[0] || (val == cur[0] && from > cur[1]) {
				p.best[i] = [2]int64{val, from}
				p.hasBest[i] = true
			}
		}
	}
	return sim.Done
}

// acceptNode: after the component-wide max flood, old nodes broadcast
// the accepted proposal; type-2 nodes learn whether they were matched
// and prune their lists. The lost-collection is a set, so announcement
// order is immaterial.
type acceptNode struct {
	cls      []int32
	comp     []int64
	accepted [][2]int64 // parallel: (value, proposer), -1 proposer = none
	proposed bool
	proposal candidate
	propVal  int64
	round    int
	matched  bool
	lost     []candidate // components that accepted someone else
}

func (p *acceptNode) Round(ctx *sim.Context, inbox []sim.Delivery) sim.Status {
	switch p.round {
	case 0:
		p.round++
		sent := false
		for i, best := range p.accepted {
			if best[1] < 0 {
				continue // no proposal reached this component
			}
			c := p.cls[i]
			// Self-acceptance: a proposer that is itself a member of the
			// winning component never hears its own broadcast.
			if p.proposed && p.proposal.class == c && p.proposal.compID == p.comp[i] &&
				best[0] == p.propVal && best[1] == int64(ctx.ID()) {
				p.matched = true
			}
			ctx.Broadcast(sim.Msg(kindAccept, int64(c), p.comp[i], best[0], best[1]))
			sent = true
		}
		if sent {
			return sim.Active
		}
	case 1:
		p.round++
		for _, d := range inbox {
			if d.Msg.Kind != kindAccept {
				continue
			}
			cand := candidate{class: int32(d.Msg.F[0]), compID: d.Msg.F[1]}
			val, winner := d.Msg.F[2], d.Msg.F[3]
			if p.proposed && cand == p.proposal && val == p.propVal && winner == int64(ctx.ID()) {
				p.matched = true
			} else {
				dup := false
				for _, have := range p.lost {
					if have == cand {
						dup = true
						break
					}
				}
				if !dup {
					p.lost = append(p.lost, cand)
				}
			}
		}
	}
	return sim.Done
}

// matchStages runs the O(log n) Luby-style stages of Appendix B.3 and
// assigns classes to the type-2 virtual nodes of the layer. Returns the
// number matched through the bridging graph.
func (r *run) matchStages(layer int, lists [][]candidate) (int, error) {
	stages := 1
	for s := 1; s < r.n; s <<= 1 {
		stages++
	}
	matchedCount := 0
	assigned := make([]bool, r.n)
	procs := make([]sim.Process, r.n)
	total := 0
	for v := 0; v < r.n; v++ {
		total += len(r.clsList[v])
	}
	blockedBacking := make([]bool, total)
	blocked := make([][]bool, r.n)
	pos := 0
	for v := range blocked {
		k := len(r.clsList[v])
		blocked[v] = blockedBacking[pos : pos+k : pos+k]
		pos += k
	}

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
		bestBacking := make([][2]int64, total)
		hasBacking := make([]bool, total)
		props := make([]*proposeNode, r.n)
		pos = 0
		for v := 0; v < r.n; v++ {
			var list []candidate
			if !assigned[v] {
				list = lists[v]
			}
			k := len(r.clsList[v])
			props[v] = &proposeNode{
				cls:     r.clsList[v],
				comp:    r.compList[v],
				blocked: blocked[v],
				list:    list,
				best:    bestBacking[pos : pos+k : pos+k],
				hasBest: hasBacking[pos : pos+k : pos+k],
			}
			pos += k
			procs[v] = props[v]
		}
		seed := r.opts.Seed ^ uint64(layer*131+stage)<<10 ^ 0xabcd
		if err := r.runPhase(procs, seed, 8); err != nil {
			return matchedCount, fmt.Errorf("propose stage: %w", err)
		}

		// Component-wide max of proposals per class, via restricted
		// flooding (minimize (-value, -proposer)).
		accepted, err := r.floodBestProposal(props, seed^0x1111)
		if err != nil {
			return matchedCount, err
		}

		// Accept round.
		accs := make([]*acceptNode, r.n)
		for v := 0; v < r.n; v++ {
			accs[v] = &acceptNode{
				cls:      r.clsList[v],
				comp:     r.compList[v],
				accepted: accepted[v],
				proposed: props[v].proposed,
				proposal: props[v].proposal,
				propVal:  props[v].propVal,
			}
			procs[v] = accs[v]
		}
		if err := r.runPhase(procs, seed^0x2222, 8); err != nil {
			return matchedCount, fmt.Errorf("accept stage: %w", err)
		}

		for v := 0; v < r.n; v++ {
			// Members of components that accepted a proposal mark them
			// matched for all later stages.
			for i := range accepted[v] {
				if accepted[v][i][1] >= 0 {
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
			if len(accs[v].lost) > 0 {
				pruned := lists[v][:0]
				for _, cand := range lists[v] {
					lostIt := false
					for _, lc := range accs[v].lost {
						if lc == cand {
							lostIt = true
							break
						}
					}
					if !lostIt {
						pruned = append(pruned, cand)
					}
				}
				lists[v] = pruned
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

// floodBestProposal spreads each component's best proposal to all its
// members (the Theorem B.2 aggregation of Appendix B.3). The max-merge
// with (value, proposer) tie-breaking is order-insensitive, so the
// slice-indexed state floods identically to the map-based original.
// Entries with hasBest false stand for "no proposal heard yet".
type proposalFloodNode struct {
	cls      []int32
	best     [][2]int64
	hasBest  []bool
	dirty    []bool
	hasDirty bool
	started  bool
}

func (p *proposalFloodNode) Round(ctx *sim.Context, inbox []sim.Delivery) sim.Status {
	if !p.started {
		p.started = true
		for i := range p.cls {
			if p.hasBest[i] {
				p.dirty[i] = true
				p.hasDirty = true
			}
		}
	}
	for _, d := range inbox {
		if d.Msg.Kind != kindPropose {
			continue
		}
		i := classIndex(p.cls, int32(d.Msg.F[0]))
		if i < 0 {
			continue
		}
		val, who := d.Msg.F[1], d.Msg.F[2]
		cur := p.best[i]
		if !p.hasBest[i] || val > cur[0] || (val == cur[0] && who > cur[1]) {
			p.best[i] = [2]int64{val, who}
			p.hasBest[i] = true
			p.dirty[i] = true
			p.hasDirty = true
		}
	}
	if !p.hasDirty {
		return sim.Done
	}
	for i, c := range p.cls {
		if p.dirty[i] {
			b := p.best[i]
			ctx.Broadcast(sim.Msg(kindPropose, int64(c), b[0], b[1]))
			p.dirty[i] = false
		}
	}
	p.hasDirty = false
	return sim.Active
}

func (r *run) floodBestProposal(props []*proposeNode, seed uint64) ([][][2]int64, error) {
	total := 0
	for v := 0; v < r.n; v++ {
		total += len(r.clsList[v])
	}
	bestBacking := make([][2]int64, total)
	flagBacking := make([]bool, 2*total)
	nodes := make([]*proposalFloodNode, r.n)
	procs := make([]sim.Process, r.n)
	pos := 0
	for v := 0; v < r.n; v++ {
		k := len(r.clsList[v])
		nd := &proposalFloodNode{
			cls:     r.clsList[v],
			best:    bestBacking[pos : pos+k : pos+k],
			hasBest: flagBacking[pos : pos+k : pos+k],
			dirty:   flagBacking[total+pos : total+pos+k : total+pos+k],
		}
		copy(nd.best, props[v].best)
		copy(nd.hasBest, props[v].hasBest)
		pos += k
		nodes[v] = nd
		procs[v] = nd
	}
	if err := r.runPhase(procs, seed, 4*r.n+8); err != nil {
		return nil, fmt.Errorf("proposal flood: %w", err)
	}
	out := make([][][2]int64, r.n)
	for v := 0; v < r.n; v++ {
		// Components with no proposal anywhere get proposer -1 so
		// acceptNode can skip them.
		best := nodes[v].best
		for i := range best {
			if !nodes[v].hasBest[i] {
				best[i] = [2]int64{-1, -1}
			}
		}
		out[v] = best
	}
	return out, nil
}

// --- Tree extraction ----------------------------------------------------

// bfsClassNode grows, for every class this node belongs to, a BFS tree
// from the class leader (the member whose id equals the component id).
// The parent rule ("first delivery for the class") picks the lowest-id
// neighbor at the previous BFS depth: deliveries arrive sender-major,
// and a sender broadcasts each class at most once per round, so the rule
// is insensitive to the per-sender broadcast order. parent[i] is -2
// until the BFS reaches the node (-1 marks the root).
type bfsClassNode struct {
	cls      []int32
	leader   []bool
	parent   []int64
	depth    []int64
	dirty    []bool
	hasDirty bool
	started  bool
}

func (p *bfsClassNode) Round(ctx *sim.Context, inbox []sim.Delivery) sim.Status {
	if !p.started {
		p.started = true
		for i := range p.cls {
			if p.leader[i] {
				p.parent[i] = -1
				p.depth[i] = 0
				p.dirty[i] = true
				p.hasDirty = true
			}
		}
	}
	for _, d := range inbox {
		if d.Msg.Kind != kindBFS {
			continue
		}
		i := classIndex(p.cls, int32(d.Msg.F[0]))
		if i < 0 || p.parent[i] != unreached {
			continue
		}
		p.parent[i] = int64(d.From)
		p.depth[i] = d.Msg.F[1] + 1
		p.dirty[i] = true
		p.hasDirty = true
	}
	if !p.hasDirty {
		return sim.Done
	}
	for i, c := range p.cls {
		if p.dirty[i] {
			ctx.Broadcast(sim.Msg(kindBFS, int64(c), p.depth[i]))
			p.dirty[i] = false
		}
	}
	p.hasDirty = false
	return sim.Active
}

// unreached marks a class whose BFS has not arrived at this node.
const unreached = -2

// extractTrees converts the final classes into dominating trees by
// per-class distributed BFS from the class leader. This realizes the
// paper's 0/1-weight MST step: a BFS forest of the 0-weight (same-class)
// subgraph is such an MST's 0-weight part.
func (r *run) extractTrees() error {
	total := 0
	for v := 0; v < r.n; v++ {
		total += len(r.clsList[v])
	}
	i64Backing := make([]int64, 2*total)
	flagBacking := make([]bool, 2*total)
	nodes := make([]*bfsClassNode, r.n)
	procs := make([]sim.Process, r.n)
	pos := 0
	for v := 0; v < r.n; v++ {
		k := len(r.clsList[v])
		nd := &bfsClassNode{
			cls:    r.clsList[v],
			leader: flagBacking[pos : pos+k : pos+k],
			parent: i64Backing[pos : pos+k : pos+k],
			depth:  i64Backing[total+pos : total+pos+k : total+pos+k],
			dirty:  flagBacking[total+pos : total+pos+k : total+pos+k],
		}
		for i := range nd.parent {
			nd.parent[i] = unreached
		}
		for i := range r.clsList[v] {
			nd.leader[i] = r.compList[v][i] == int64(v)
		}
		pos += k
		nodes[v] = nd
		procs[v] = nd
	}
	if err := r.runPhase(procs, r.opts.Seed^0x7ee5, 4*r.n+8); err != nil {
		return fmt.Errorf("tree extraction: %w", err)
	}
	for v := 0; v < r.n; v++ {
		m := r.parent[v]
		clear(m)
		for i, c := range r.clsList[v] {
			if nodes[v].parent[i] != unreached {
				m[c] = nodes[v].parent[i]
			}
		}
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
	)
	for c := 0; c < r.classes; c++ {
		members := classMembers[c]
		if len(members) == 0 {
			continue
		}
		parentOf := make(map[int]int, len(members))
		root := -1
		complete := true
		for _, v := range members {
			p, ok := r.parent[v][int32(c)]
			if !ok {
				complete = false // BFS never reached v: class disconnected
				break
			}
			if p < 0 {
				if root >= 0 {
					complete = false // two roots: split class
					break
				}
				root = int(v)
			} else {
				parentOf[int(v)] = int(p)
			}
		}
		if !complete || root < 0 {
			continue
		}
		tree, err := graph.NewTree(r.n, root, parentOf)
		if err != nil {
			continue
		}
		if !tree.IsDominatingIn(r.g) {
			continue
		}
		trees = append(trees, graph.WeightedTree{Tree: tree, Weight: 1})
		treeClass = append(treeClass, c)
	}
	stats := r.stats
	stats.ValidClasses = len(trees)
	stats.MaxLoad = cds.FinalizeWeights(trees, r.n)
	return &cds.Packing{Trees: trees, TreeClass: treeClass, Classes: classMembers, Stats: stats}
}
