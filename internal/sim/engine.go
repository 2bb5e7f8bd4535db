package sim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"repro/internal/ds"
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
// Each round is one serial pass: every node's Round, which reads its
// neighbors' previous-round outboxes in place, then the metering of the
// round's sends. Each node keeps two outboxes, this round's and last
// round's, swapped at the start of every round; both are reused across
// rounds and, via Reset, across protocol phases on the same graph, so a
// warm engine allocates nothing per round.
type Engine struct {
	g            *graph.Graph
	model        Model
	procs        []Process
	contexts     []Context
	meter        Meter
	maxFieldBits int
	phaseRound   int
	statuses     []Status
	observer     func(from, to int32, bits int)
	// violation is the field-budget violation that aborted a round; it
	// stays until Reset.
	violation error
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

// NewEngine builds an engine over g. Each node i runs procs[i]; the
// seed drives every node's private random stream.
func NewEngine(g *graph.Graph, model Model, procs []Process, seed uint64, opts ...Option) (*Engine, error) {
	if len(procs) != g.N() {
		return nil, fmt.Errorf("sim: %d processes for %d nodes", len(procs), g.N())
	}
	if model != VCongest && model != ECongest {
		return nil, fmt.Errorf("sim: unknown model %v", model)
	}
	e := &Engine{
		g:            g,
		model:        model,
		procs:        procs,
		contexts:     make([]Context, g.N()),
		maxFieldBits: DefaultMaxFieldBits(g.N()),
		statuses:     make([]Status, g.N()),
	}
	for i := range e.contexts {
		s1, s2 := ds.SplitSeed(seed, uint64(i))
		pcg := rand.NewPCG(s1, s2)
		e.contexts[i] = Context{
			engine: e,
			node:   int32(i),
			pcg:    pcg,
			rng:    rand.New(pcg),
		}
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Reset rebinds the engine to a new protocol run over the same graph
// and model: fresh processes, reseeded per-node random streams, zeroed
// meter and statuses, both outboxes of every node emptied — while
// keeping their buffers. Drivers that execute many phases over one
// topology reset one engine instead of allocating one per phase.
// Options are re-applied from the defaults, so pass the same options
// each time (or none).
func (e *Engine) Reset(procs []Process, seed uint64, opts ...Option) error {
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
		s1, s2 := ds.SplitSeed(seed, uint64(i))
		c.pcg.Seed(s1, s2)
	}
	clear(e.statuses)
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

func (e *Engine) checkMessage(m Message) error {
	for _, f := range m.F {
		if fb := fieldBits(f); fb > e.maxFieldBits {
			return fmt.Errorf("sim: field %d needs %d bits, budget %d", f, fb, e.maxFieldBits)
		}
	}
	return nil
}

// RunPhase executes rounds until every process returns Done in the same
// round, or maxRounds elapse (an error). Outboxes carry over between
// phases: messages sent in the final round of a phase are delivered in
// the first round of the next. Once a field-budget violation has
// aborted a round, RunPhase returns that error at once, calling no
// Round, until Reset.
func (e *Engine) RunPhase(maxRounds int) error {
	if e.violation != nil {
		return e.violation
	}
	e.phaseRound = 0
	for r := 0; r < maxRounds; r++ {
		allDone, err := e.step()
		if err != nil {
			return err
		}
		e.phaseRound++
		if allDone {
			e.meter.Phases++
			return nil
		}
	}
	return fmt.Errorf("sim: phase did not converge within %d rounds", maxRounds)
}

// step runs one synchronous round: the outbox swap, every node's Round
// over its in-place inbox, then metering, then the delivery observer if
// one is registered.
func (e *Engine) step() (allDone bool, err error) {
	for v := range e.contexts {
		c := &e.contexts[v]
		c.out, c.prev = c.prev[:0], c.out
	}
	off := e.g.AdjOffsets()
	nbr := e.g.AdjTargets()
	for v := range e.contexts {
		inbox := Inbox{nbrs: nbr[off[v]:off[v+1]], contexts: e.contexts}
		e.statuses[v] = e.procs[v].Round(&e.contexts[v], inbox)
	}
	if e.violation != nil {
		// The round is aborted: none of its broadcasts is metered or
		// delivered.
		for i := range e.contexts {
			e.contexts[i].out = e.contexts[i].out[:0]
		}
		return false, e.violation
	}

	maxSlots := e.meterSends()
	if e.observer != nil {
		for v := range e.contexts {
			for _, u := range nbr[off[v]:off[v+1]] {
				for _, m := range e.contexts[u].out {
					e.observer(u, int32(v), m.BitSize())
				}
			}
		}
	}
	e.meter.RawRounds++
	e.meter.MeteredRounds += max(maxSlots, 1)

	for _, st := range e.statuses {
		if st != Done {
			return false, nil
		}
	}
	return true, nil
}

// meterSends meters every node's broadcasts of the round and returns
// the round's slot count: the most broadcasts any node made (V-CONGEST)
// or any node with an edge made (E-CONGEST, where an isolated node's
// broadcasts cross no edge direction).
func (e *Engine) meterSends() (maxSlots int) {
	off := e.g.AdjOffsets()
	var messages, sentBits int64
	for v := range e.contexts {
		if out := e.contexts[v].out; len(out) > 0 {
			copies := int64(1)
			if e.model == ECongest {
				copies = int64(off[v+1] - off[v])
			}
			if copies > 0 {
				maxSlots = max(maxSlots, len(out))
			}
			for i := range out {
				sentBits += int64(out[i].BitSize()) * copies
			}
			messages += int64(len(out)) * copies
		}
	}
	e.meter.Messages += messages
	e.meter.Bits += sentBits
	return maxSlots
}
