// Package cast implements the paper's information-dissemination
// applications (Section 1.3.1, Appendix A): broadcast and gossip by
// routing each message along a random tree of a connectivity
// decomposition, with throughput and oblivious-routing congestion
// metering (Corollaries 1.4, 1.5, 1.6 and A.1).
//
// The scheduler enforces the communication models directly: in
// V-CONGEST each node transmits at most one message per round (heard by
// all neighbors); in E-CONGEST each directed edge carries at most one
// message per round. Scheduling decisions are node-local (FIFO queues);
// the only global setup is a one-time announcement of tree memberships,
// charged as setup rounds.
//
// The Scheduler handle (scheduler.go) is the primary entry point for
// steady-state serving: construct once per (graph, trees, model),
// then Run any sequence of demands with zero per-run setup allocations.
// Broadcast and SingleTreeBaseline are thin construct-and-run wrappers
// for one-shot use.
//
// # Caller invariants
//
// NewScheduler validates the trees against the graph once; after that
// the graph and trees are shared, not copied, and must not be mutated
// for the handle's lifetime. One handle serves one goroutine at a
// time — concurrent use goes through Clone, which shares the immutable
// core and owns fresh run buffers (clones of one handle may Run
// concurrently and return results byte-identical to serial replays).
// Results are pure functions of (handle construction, demand, seed),
// and for RunFaulted additionally of the fault plan.
package cast

import (
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/sim"
)

// WeightedTree is one tree of a decomposition with its fractional
// weight. Both dominating-tree and spanning-tree packings convert to
// this form.
type WeightedTree struct {
	Tree   *graph.Tree
	Weight float64
}

// Result reports a dissemination run.
type Result struct {
	// Rounds is the number of rounds until every node held every message.
	Rounds int
	// SetupRounds is the one-time membership-announcement charge.
	SetupRounds int
	// Throughput is messages delivered per round, N/Rounds.
	Throughput float64
	// MaxVertexCongestion is the maximum number of transmissions by any
	// single node (the Corollary 1.6 vertex-congestion).
	MaxVertexCongestion int
	// MaxEdgeCongestion is the maximum number of messages carried by any
	// single edge (both directions combined).
	MaxEdgeCongestion int
	// TreeLoad is the maximum number of messages assigned to one tree.
	TreeLoad int
}

// Demand is a multiset of messages to broadcast: message i originates at
// Sources[i].
type Demand struct {
	Sources []int
}

// AllToAll returns the gossip demand (Appendix A): one message per node.
func AllToAll(n int) Demand {
	src := make([]int, n)
	for i := range src {
		src[i] = i
	}
	return Demand{Sources: src}
}

// UniformDemand returns nMsgs messages from uniformly random sources.
func UniformDemand(n, nMsgs int, rng *rand.Rand) Demand {
	src := make([]int, nMsgs)
	for i := range src {
		src[i] = rng.IntN(n)
	}
	return Demand{Sources: src}
}

// Broadcast disseminates the demand's messages to every node of g by
// routing each along a randomly chosen tree of the decomposition, and
// returns the realized rounds, throughput, and congestion. It is the
// one-shot form of the Scheduler handle: construct, run once, discard —
// callers serving repeated demands should hold a Scheduler instead.
//
// In sim.VCongest mode the trees must be dominating trees; in
// sim.ECongest mode they must be spanning trees.
func Broadcast(g *graph.Graph, trees []WeightedTree, demand Demand, model sim.Model, seed uint64) (Result, error) {
	s, err := NewScheduler(g, trees, model)
	if err != nil {
		return Result{}, err
	}
	return s.Run(demand, seed)
}

// SingleTreeBaseline broadcasts the demand over one pipelined BFS tree —
// the throughput-1 baseline the corollaries compare against.
func SingleTreeBaseline(g *graph.Graph, demand Demand, model sim.Model, seed uint64) (Result, error) {
	tree := graph.TreeFromBFS(g, 0)
	return Broadcast(g, []WeightedTree{{Tree: tree, Weight: 1}}, demand, model, seed)
}

func maxOf32(xs []int32) int32 {
	var m int32
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
