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
	// where the busiest node (V-CONGEST) or edge direction (E-CONGEST)
	// used s slots contributes s.
	MeteredRounds int
	// ChargedRounds are driver-added costs (BFS preprocessing,
	// termination-detection barriers, meta-round simulation overhead).
	ChargedRounds int
	// Messages and Bits count everything sent (a broadcast to d
	// neighbors counts as one message of its size; the V-CONGEST model
	// charges a node once per local broadcast).
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
// Each round is one serial pass: every node's Round, then one
// receiver-major routing pass that assembles the next round's inboxes
// and meters the sends. Inbox and outbox buffers are reused across
// rounds and, via Reset, across protocol phases on the same graph, so a
// warm engine allocates nothing per round.
type Engine struct {
	g            *graph.Graph
	model        Model
	procs        []Process
	contexts     []Context
	inbox        [][]Delivery
	nextInbox    [][]Delivery
	meter        Meter
	maxFieldBits int
	phaseRound   int
	statuses     []Status
	observer     func(from, to int32, bits int)

	// rev maps each CSR adjacency position p (receiver v listing sender
	// u) to the position of v inside u's neighbor list, so receiver-side
	// routing can recognize directed sends addressed to v. Built only
	// for E-CONGEST engines.
	rev []int32
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
// routing, on the engine's goroutine, receiver by receiver in inbox
// order.
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
		inbox:        make([][]Delivery, g.N()),
		nextInbox:    make([][]Delivery, g.N()),
		maxFieldBits: DefaultMaxFieldBits(g.N()),
		statuses:     make([]Status, g.N()),
	}
	if model == ECongest {
		e.rev = buildReverseIndex(g)
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
// meter and statuses — while keeping every internal buffer (inboxes,
// outboxes, reverse index). Drivers that execute many phases over one
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
	for i := range e.contexts {
		c := &e.contexts[i]
		c.out = c.out[:0]
		c.slotsUsed = 0
		c.violation = nil
		s1, s2 := ds.SplitSeed(seed, uint64(i))
		c.pcg.Seed(s1, s2)
	}
	for i := range e.inbox {
		e.inbox[i] = e.inbox[i][:0]
		e.nextInbox[i] = e.nextInbox[i][:0]
	}
	clear(e.statuses)
	for _, opt := range opts {
		opt(e)
	}
	return nil
}

// buildReverseIndex computes, for every CSR position p where vertex v
// lists neighbor u, the position of v inside u's neighbor list.
func buildReverseIndex(g *graph.Graph) []int32 {
	off := g.AdjOffsets()
	nbr := g.AdjTargets()
	rev := make([]int32, len(nbr))
	for v := 0; v < g.N(); v++ {
		for p := off[v]; p < off[v+1]; p++ {
			rev[p] = int32(g.NeighborIndex(int(nbr[p]), v))
		}
	}
	return rev
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// Meter returns the accumulated cost meter.
func (e *Engine) Meter() *Meter { return &e.meter }

// Graph returns the underlying topology.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Model returns the congestion model in force.
func (e *Engine) Model() Model { return e.model }

func (e *Engine) checkMessage(m Message) error {
	for _, f := range m.F {
		if fb := fieldBits(f); fb > e.maxFieldBits {
			return fmt.Errorf("sim: field %d needs %d bits, budget %d", f, fb, e.maxFieldBits)
		}
	}
	return nil
}

// RunPhase executes rounds until every process returns Done in the same
// round, or maxRounds elapse (an error). Message buffers carry over
// between phases: messages sent in the final round of a phase are
// delivered in the first round of the next.
func (e *Engine) RunPhase(maxRounds int) error {
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

// step runs one synchronous round: every node's Round, then routing and
// metering, then the delivery observer if one is registered.
func (e *Engine) step() (allDone bool, err error) {
	for v := range e.contexts {
		ctx := &e.contexts[v]
		ctx.out = ctx.out[:0]
		ctx.slotsUsed = 0
		e.statuses[v] = e.procs[v].Round(ctx, e.inbox[v])
	}
	for v := range e.contexts {
		if e.contexts[v].violation != nil {
			return false, e.contexts[v].violation
		}
	}

	maxSlots := e.route()
	if e.observer != nil {
		for v, buf := range e.nextInbox {
			for i := range buf {
				e.observer(buf[i].From, int32(v), buf[i].Msg.BitSize())
			}
		}
	}
	e.meter.RawRounds++
	e.meter.MeteredRounds += int(max(maxSlots, 1))
	e.inbox, e.nextInbox = e.nextInbox, e.inbox

	for _, st := range e.statuses {
		if st != Done {
			return false, nil
		}
	}
	return true, nil
}

// route meters every node's sends and assembles the next round's
// inboxes, receiver by receiver: each receiver scans its neighbors'
// outboxes in ascending sender order, so an inbox lists deliveries by
// sender and, per sender, in send order. It returns the round's slot
// count: the most slots any node (V-CONGEST) or edge direction
// (E-CONGEST) used.
func (e *Engine) route() (maxSlots int32) {
	off := e.g.AdjOffsets()
	nbrFlat := e.g.AdjTargets()
	var messages, sentBits int64
	for v := range e.contexts {
		ctx := &e.contexts[v]
		deg := int64(off[v+1] - off[v])
		if e.model == VCongest {
			maxSlots = max(maxSlots, ctx.slotsUsed)
			for i := range ctx.out {
				messages++
				sentBits += int64(ctx.out[i].msg.BitSize())
			}
		} else {
			for i := range ctx.out {
				size := int64(ctx.out[i].msg.BitSize())
				if ctx.out[i].target < 0 {
					// A broadcast in E-CONGEST sends one copy per
					// incident edge (net zero for isolated nodes).
					messages += deg
					sentBits += size * deg
				} else {
					messages++
					sentBits += size
				}
			}
		}

		buf := e.nextInbox[v][:0]
		for pos := off[v]; pos < off[v+1]; pos++ {
			u := nbrFlat[pos]
			out := e.contexts[u].out
			if len(out) == 0 {
				continue
			}
			if e.model == VCongest {
				for i := range out {
					buf = append(buf, Delivery{From: u, Slot: out[i].slot, Msg: out[i].msg})
				}
			} else {
				revIdx := e.rev[pos]
				var dirCount int32
				for i := range out {
					if out[i].target < 0 {
						buf = append(buf, Delivery{From: u, Slot: out[i].slot, Msg: out[i].msg})
						dirCount++
					} else if out[i].target == revIdx {
						buf = append(buf, Delivery{From: u, Slot: dirCount, Msg: out[i].msg})
						dirCount++
					}
				}
				maxSlots = max(maxSlots, dirCount)
			}
		}
		e.nextInbox[v] = buf
	}
	e.meter.Messages += messages
	e.meter.Bits += sentBits
	return maxSlots
}
