package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Meter accumulates the cost of a run in the paper's units.
type Meter struct {
	// RawRounds counts engine rounds across all phases.
	RawRounds int
	// MeteredRounds counts rounds after slot serialization: a raw round
	// where the busiest node (V-CONGEST) or the busiest node with an
	// edge (E-CONGEST) broadcast s times contributes s.
	MeteredRounds int
	// ChargedRounds are driver-added costs (BFS preprocessing,
	// termination-detection barriers, meta-round simulation overhead).
	ChargedRounds int
	// Messages and Bits count everything sent: V-CONGEST charges a
	// broadcast once, E-CONGEST once per incident edge (d copies of its
	// size for a node of degree d).
	Messages int64
	Bits     int64
	// Phases counts completed RunPhase calls.
	Phases int
}

// TotalRounds is the headline round complexity: slot-serialized rounds
// plus explicit driver charges.
func (m *Meter) TotalRounds() int { return m.MeteredRounds + m.ChargedRounds }

// Charge adds driver-side rounds (e.g., a convergecast barrier) to the
// meter, with a reason recorded only by the caller.
func (m *Meter) Charge(rounds int) { m.ChargedRounds += rounds }

// Add folds src into m, field by field. Drivers that compose several
// engine phases use it to accumulate one run-level meter.
func (m *Meter) Add(src *Meter) {
	m.RawRounds += src.RawRounds
	m.MeteredRounds += src.MeteredRounds
	m.ChargedRounds += src.ChargedRounds
	m.Messages += src.Messages
	m.Bits += src.Bits
	m.Phases += src.Phases
}

// Engine executes Processes over a graph in synchronous rounds.
//
// Each round is one serial pass over the nodes that are due, in
// ascending id order, then the metering of the round's sends. Every
// node is due in a phase's first round; after it, a node is due when it
// returned Active in the round before or has deliveries. Metering walks
// only the round's senders: it charges each broadcast at the size
// Broadcast computed, lists the sender's port at each neighbor through
// the reverse-port table, and swaps the sender's two outboxes, so the
// next round's receivers read its broadcasts in place. A round thus
// costs what it delivers plus the calls of its due nodes. Both outboxes
// of a node are reused across rounds and, via Reset, across protocol
// phases on the same graph, so a warm engine allocates nothing per
// round.
type Engine struct {
	g            *graph.Graph
	model        Model
	procs        []Process
	contexts     []Context
	meter        Meter
	maxFieldBits int
	phaseRound   int
	observer     func(from, to int32, bits int)
	// violation is the field-budget violation that aborted a round; it
	// stays until Reset.
	violation error

	// rev[i], for the CSR slot i of edge (u, v) in u's row, is u's
	// port at v: its index in Neighbors(v).
	rev []int32
	// ports[off[v] : off[v]+heard[v]] are the ports of v whose
	// neighbor broadcast in the last metered round, ascending: what
	// v's next Inbox walks.
	ports []int32
	heard []int32
	// due has bit v set when node v is called in the next round.
	due []uint64
	// senders lists the current round's senders, ascending.
	senders []int32
}

// Option customizes engine construction.
type Option func(*Engine)

// WithMaxFieldBits overrides the per-field bit budget (default
// 2*ceil(log2(n+2))+8, i.e. O(log n)).
func WithMaxFieldBits(b int) Option {
	return func(e *Engine) {
		if b > 0 {
			e.maxFieldBits = b
		}
	}
}

// WithDeliveryObserver registers a callback invoked once per delivered
// message copy (from, to, payload bits). The lower-bound experiments of
// Appendix G use it to count the bits crossing a vertex separator, the
// quantity Lemma G.6 bounds. The calls for a round come after its
// metering, on the engine's goroutine, receiver by receiver in the order
// of the inbox that will deliver them.
func WithDeliveryObserver(fn func(from, to int32, bits int)) Option {
	return func(e *Engine) { e.observer = fn }
}

// SetDefaultWorkers has no effect: every engine runs its rounds
// serially.
//
// Deprecated: it remains only for callers written when rounds could run
// on several goroutines, and goes once they stop calling it.
func SetDefaultWorkers(w int) {}

// NewEngine builds an engine over g. Each node i runs procs[i]. The
// engine owns no randomness: a randomized protocol draws from streams
// its driver hands its processes.
func NewEngine(g *graph.Graph, model Model, procs []Process, opts ...Option) (*Engine, error) {
	if len(procs) != g.N() {
		return nil, fmt.Errorf("sim: %d processes for %d nodes", len(procs), g.N())
	}
	if model != VCongest && model != ECongest {
		return nil, fmt.Errorf("sim: unknown model %v", model)
	}
	n := g.N()
	nbr := g.AdjTargets()
	e := &Engine{
		g:            g,
		model:        model,
		procs:        procs,
		contexts:     make([]Context, n),
		maxFieldBits: DefaultMaxFieldBits(n),
		rev:          make([]int32, len(nbr)),
		ports:        make([]int32, len(nbr)),
		heard:        make([]int32, n),
		due:          make([]uint64, (n+63)/64),
		senders:      make([]int32, 0, n),
	}
	// Rows ascend, so visiting the senders u in ascending order meets
	// each receiver's neighbors in row order: heard counts them off.
	for i, v := range nbr {
		e.rev[i] = e.heard[v]
		e.heard[v]++
	}
	clear(e.heard)
	for i := range e.contexts {
		e.contexts[i] = Context{engine: e, node: int32(i)}
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Reset rebinds the engine to a new protocol run over the same graph
// and model: fresh processes, a zeroed meter, no deliveries pending and
// both outboxes of every node emptied — while keeping their buffers.
// Drivers that execute many phases over one topology reset one engine
// instead of allocating one per phase. Options are re-applied from the
// defaults, so pass the same options each time (or none).
func (e *Engine) Reset(procs []Process, opts ...Option) error {
	if len(procs) != e.g.N() {
		return fmt.Errorf("sim: %d processes for %d nodes", len(procs), e.g.N())
	}
	e.procs = procs
	e.meter = Meter{}
	e.phaseRound = 0
	e.maxFieldBits = DefaultMaxFieldBits(e.g.N())
	e.observer = nil
	e.violation = nil
	for i := range e.contexts {
		c := &e.contexts[i]
		c.out = c.out[:0]
		c.prev = c.prev[:0]
		c.bits = 0
	}
	clear(e.heard)
	for _, opt := range opts {
		opt(e)
	}
	return nil
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// Meter returns the accumulated cost meter.
func (e *Engine) Meter() *Meter { return &e.meter }

// RunPhase executes rounds until no node called in a round returns
// Active, or maxRounds elapse (an error). Every node is called in the
// phase's first round; after it, only nodes that returned Active in
// the round before or have deliveries are called. A node that returned
// Done and receives nothing is not called and keeps its state, so the
// phase ends in global quiescence. Outboxes carry over between phases:
// messages sent in the final round of a phase are delivered in the
// first round of the next. Once a field-budget violation has aborted a
// round, RunPhase returns that error at once, calling no Round, until
// Reset.
func (e *Engine) RunPhase(maxRounds int) error {
	if e.violation != nil {
		return e.violation
	}
	e.phaseRound = 0
	for i := range e.due {
		e.due[i] = ^uint64(0)
	}
	if tail := len(e.contexts) % 64; tail != 0 {
		e.due[len(e.due)-1] = 1<<tail - 1
	}
	for r := 0; r < maxRounds; r++ {
		active, err := e.step()
		if err != nil {
			return err
		}
		e.phaseRound++
		if !active {
			e.meter.Phases++
			return nil
		}
	}
	return fmt.Errorf("sim: phase did not converge within %d rounds", maxRounds)
}

// inbox returns node v's inbox: the ports listed at the last metering.
func (e *Engine) inbox(v int) Inbox {
	off := e.g.AdjOffsets()
	lo := off[v]
	return Inbox{nbrs: e.g.AdjTargets()[lo:off[v+1]], ports: e.ports[lo : lo+e.heard[v]], contexts: e.contexts}
}

// step runs one synchronous round: the Round of every due node over
// its in-place inbox, then metering, then the delivery observer if one
// is registered. It reports whether some called node returned Active.
func (e *Engine) step() (active bool, err error) {
	e.senders = e.senders[:0]
	for w, word := range e.due {
		e.due[w] = 0
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			v := w<<6 | b
			inbox := e.inbox(v)
			e.heard[v] = 0 // this round's metering lists v's next ports afresh
			c := &e.contexts[v]
			if e.procs[v].Round(c, inbox) != Done {
				e.due[w] |= 1 << b
				active = true
			}
			if len(c.out) > 0 {
				e.senders = append(e.senders, int32(v))
			}
		}
	}
	if e.violation != nil {
		// The round is aborted: none of its broadcasts is metered or
		// delivered.
		for _, u := range e.senders {
			c := &e.contexts[u]
			c.out, c.bits = c.out[:0], 0
		}
		return false, e.violation
	}

	maxSlots := e.meterSends()
	if e.observer != nil {
		for v := range e.contexts {
			for d := range e.inbox(v).All() {
				e.observer(d.From, int32(v), d.Msg.BitSize())
			}
		}
	}
	e.meter.RawRounds++
	e.meter.MeteredRounds += max(maxSlots, 1)
	return active, nil
}

// meterSends meters the round's broadcasts and returns its slot count:
// the most broadcasts any node made (V-CONGEST) or any node with an
// edge made (E-CONGEST, where an isolated node's broadcasts cross no
// edge direction). It lists each sender's port at every neighbor, marks
// the neighbor due, and swaps the sender's outboxes, so the next
// round's inboxes read this round's broadcasts.
func (e *Engine) meterSends() (maxSlots int) {
	off := e.g.AdjOffsets()
	nbr := e.g.AdjTargets()
	var messages, sentBits int64
	for _, u := range e.senders {
		c := &e.contexts[u]
		lo, hi := off[u], off[u+1]
		copies := int64(1)
		if e.model == ECongest {
			copies = int64(hi - lo)
		}
		if copies > 0 {
			maxSlots = max(maxSlots, len(c.out))
		}
		messages += int64(len(c.out)) * copies
		sentBits += c.bits * copies
		for i := lo; i < hi; i++ {
			v := nbr[i]
			e.ports[off[v]+e.heard[v]] = e.rev[i]
			e.heard[v]++
			e.due[v>>6] |= 1 << (v & 63)
		}
		c.out, c.prev, c.bits = c.prev[:0], c.out, 0
	}
	e.meter.Messages += messages
	e.meter.Bits += sentBits
	return maxSlots
}
