// Package sim implements the synchronous message-passing models of the
// paper (Section 1.2): V-CONGEST, where each node locally broadcasts one
// O(log n)-bit message per round, and E-CONGEST, where one O(log n)-bit
// message crosses each edge direction per round. Every protocol here
// only broadcasts locally, so a broadcast is the engine's one way to
// send; E-CONGEST counts it as one message on each incident edge.
//
// Protocols are state machines implementing Process; a driver composes
// phases by calling Engine.RunPhase repeatedly. Rounds are
// event-driven: after a phase's first round, which calls every node,
// a node is called only when it returned Active in the round before or
// has deliveries, and a Done node that hears nothing keeps its state.
// A node receives in place: its Inbox lists the ports whose neighbor
// broadcast and reads those neighbors' previous-round outboxes, so no
// delivery is copied and no silent neighbor is visited. A round thus
// costs the calls of its due nodes plus what it delivers; the engine
// owns no randomness. The engine meters rounds the way the paper does:
// a round in which some node uses s message slots is charged as s
// rounds (slots serialize under a globally known schedule), and
// driver-side glue such as termination-detection convergecasts is
// charged explicitly via Meter.Charge. V-CONGEST takes the slot count
// from every node and charges each broadcast once; E-CONGEST takes it
// only from nodes that have an edge and charges each broadcast once per
// incident edge.
package sim

import (
	"fmt"
	"iter"
	"math/bits"
)

// Model selects which congestion constraint the engine enforces.
type Model int

const (
	// VCongest allows each node one local-broadcast slot per round.
	VCongest Model = iota + 1
	// ECongest allows one message per edge direction per round.
	ECongest
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case VCongest:
		return "V-CONGEST"
	case ECongest:
		return "E-CONGEST"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Message is a bounded message: one kind byte plus up to four integer
// fields, each restricted to O(log n) bits by the engine. Unused fields
// stay zero and cost nothing.
type Message struct {
	Kind uint8
	F    [4]int64
}

// Msg builds a Message from a kind and up to four fields.
func Msg(kind uint8, fields ...int64) Message {
	m := Message{Kind: kind}
	copy(m.F[:], fields)
	return m
}

// BitSize returns the size of the message in bits: 8 for the kind plus
// the signed bit-length of each non-zero field.
func (m Message) BitSize() int {
	b := 8
	for _, f := range m.F {
		b += fieldBits(f)
	}
	return b
}

func fieldBits(f int64) int {
	if f == 0 {
		return 0
	}
	if f < 0 {
		f = -f
	}
	return bits.Len64(uint64(f)) + 1 // +1 sign bit
}

// FieldBits returns the bit cost the engine charges for one message
// field: 0 for zero, signed bit-length otherwise. Protocol drivers use
// it to size WithMaxFieldBits budgets for their value domains.
func FieldBits(f int64) int { return fieldBits(f) }

// DefaultMaxFieldBits returns the engine's default per-field budget for
// an n-node graph: 2⌈log2(n+2)⌉+8, i.e. O(log n).
func DefaultMaxFieldBits(n int) int { return 2*ceilLog2(n+2) + 8 }

// Delivery is a received message together with its sender and the
// port it arrived on: the sender's index in the receiver's rows of the
// graph, graph.Graph's Neighbors(v) and IncidentEdges(v). In CONGEST a
// node knows which incident edge a message crossed.
type Delivery struct {
	From int32
	Port int32
	Msg  Message
}

// Inbox is what a node receives in one round: its neighbors' broadcasts
// of the previous round, read in place from their outboxes. It lists
// only the ports whose neighbor broadcast, so walking it costs what it
// delivers. An Inbox is valid only during the Round call it is passed
// to.
type Inbox struct {
	nbrs     []int32   // the receiver's neighbors, ascending
	ports    []int32   // the ports whose neighbor broadcast, ascending
	contexts []Context // the engine's, indexed by node
}

// All yields the round's deliveries neighbor by neighbor, in ascending
// port order (the order of Neighbors(v), so senders ascend), and each
// neighbor's broadcasts in send order.
func (in Inbox) All() iter.Seq[Delivery] {
	return func(yield func(Delivery) bool) {
		for _, port := range in.ports {
			u := in.nbrs[port]
			for _, m := range in.contexts[u].prev {
				if !yield(Delivery{From: u, Port: port, Msg: m}) {
					return
				}
			}
		}
	}
}

// Status is returned by Process.Round each round.
type Status int

const (
	// Active means the node is still working on the current phase.
	Active Status = iota
	// Done means the node is locally finished with the current phase:
	// until a message arrives, it is not called again in the phase.
	// The phase ends in the first round in which no called node
	// returns Active.
	Done
)

// Process is a node-local protocol state machine. Round is called with
// the node's inbox: the broadcasts its neighbors made in the previous
// round, valid only during the call. Round may send via ctx and must
// not touch any other node's state.
//
// Contract: every node is called in the first round of a phase. After
// it, a node is called in a round only if it returned Active in the
// round before or has deliveries; a node that returned Done and
// receives nothing is not called and keeps its state. A protocol that
// acts by round number reads ctx.PhaseRound(), which counts the rounds
// a node skips. A node that sends in a round must return Active for
// that round. A phase ends in the first round in which no called node
// returns Active; because Done nodes sent nothing, that is global
// quiescence. The first round of the first phase has an empty inbox;
// messages sent in the last round of a phase are delivered in the first
// round of the next phase.
type Process interface {
	Round(ctx *Context, inbox Inbox) Status
}

// Context is the per-node view of the network handed to Process.Round.
type Context struct {
	engine *Engine
	node   int32

	out  []Message // this round's broadcasts, one slot each
	prev []Message // last round's, which the neighbors read now
	bits int64     // the total size of out, in bits
}

// ID returns this node's identifier in [0, N()).
func (c *Context) ID() int { return int(c.node) }

// N returns the number of nodes. The paper grants this knowledge after
// an O(D) preprocessing phase (Section 2), which drivers charge.
func (c *Context) N() int { return c.engine.g.N() }

// PhaseRound returns the index of the current round within its phase:
// 0 in the phase's first round. It advances every round, whether or
// not this node is called, so a protocol that acts by round number
// switches on it rather than counting its own calls.
func (c *Context) PhaseRound() int { return c.engine.phaseRound }

// Broadcast sends msg to all neighbors, consuming one slot. Multiple
// broadcasts per round are allowed and metered: a round where some node
// uses s slots is charged as s rounds. A message with a field over the
// engine's bit budget is not sent: the round is aborted, RunPhase
// returns the violation (and keeps returning it until Reset), and no
// broadcast of that round is delivered.
func (c *Context) Broadcast(msg Message) {
	size := 8
	for _, f := range msg.F {
		fb := fieldBits(f)
		if fb > c.engine.maxFieldBits {
			if c.engine.violation == nil {
				c.engine.violation = fmt.Errorf("node %d round %d: sim: field %d needs %d bits, budget %d",
					c.node, c.engine.phaseRound, f, fb, c.engine.maxFieldBits)
			}
			return
		}
		size += fb
	}
	c.out = append(c.out, msg)
	c.bits += int64(size)
}
