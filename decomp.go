// Package decomp is a reproduction of "Distributed Connectivity
// Decomposition" (Censor-Hillel, Ghaffari, Kuhn — PODC 2014,
// arXiv:1311.5317): algorithms that decompose a graph's vertex or edge
// connectivity into fractionally disjoint dominating or spanning trees,
// plus the applications the paper derives from them.
//
// The public API wraps the per-subsystem packages under internal/:
//
//   - Dominating-tree (CDS) packings of size Ω(k/log n) for
//     k-vertex-connected graphs — Theorems 1.1 (distributed, V-CONGEST)
//     and 1.2 (centralized, O~(m)).
//   - Spanning-tree packings of size ⌈(λ-1)/2⌉(1-ε) for
//     λ-edge-connected graphs — Theorem 1.3 (E-CONGEST and centralized).
//   - An O(log n)-approximation of vertex connectivity (Corollary 1.7).
//   - Broadcast/gossip with near-optimal throughput and oblivious-
//     routing congestion (Corollaries 1.4–1.6, A.1).
//
// Distributed algorithms run on a synchronous message-passing simulator
// that enforces the paper's V-CONGEST/E-CONGEST models and meters rounds,
// messages, and bits; results carry those meters.
//
// # Caller invariants
//
// Everything here is deterministic on purpose: for a fixed graph and
// seed, packings, meters, and broadcast results are byte-identical
// across runs and process restarts. Callers keep that
// guarantee by treating values as immutable after construction — don't
// mutate a Graph once it has been packed, a packing once it has been
// scheduled, or a Demand while a Run is in flight. A
// BroadcastScheduler handle is single-goroutine; concurrent serving
// goes through internal/serve, which clones handles per goroutine.
// Seeds are the only entropy input: two calls differing only in seed
// are independent samples, two calls with equal seeds are replays.
package decomp

import (
	"fmt"
	"net/http"

	"repro/internal/cast"
	"repro/internal/cds"
	"repro/internal/cdsdist"
	"repro/internal/ds"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stp"
	"repro/internal/stpdist"
)

// Graph is an immutable undirected simple graph (see internal/graph).
type Graph = graph.Graph

// Tree is a subtree of a host graph stored as a parent forest.
type Tree = graph.Tree

// Meter is the distributed cost accounting: rounds (slot-serialized plus
// driver charges), messages, and bits.
type Meter = sim.Meter

// Model selects the congestion model for distributed runs and broadcast.
type Model = sim.Model

// The two models of Section 1.2.
const (
	VCongest = sim.VCongest
	ECongest = sim.ECongest
)

// DominatingTreePacking is a fractional dominating-tree packing
// (Theorem 1.1/1.2 output).
type DominatingTreePacking = cds.Packing

// SpanningTreePacking is a fractional spanning-tree packing (Theorem 1.3
// output).
type SpanningTreePacking = stp.Packing

// DistDominatingResult couples a distributed packing with its cost meter.
type DistDominatingResult = cdsdist.Result

// DistSpanningResult couples a distributed spanning packing with its
// cost meter.
type DistSpanningResult = stpdist.Result

// BroadcastResult reports rounds, throughput, and congestion of a
// dissemination run.
type BroadcastResult = cast.Result

// Demand is a broadcast workload: message i originates at Sources[i].
type Demand = cast.Demand

// Scheduler is a reusable broadcast handle bound to one
// (graph, packing, model) triple: construction builds per-tree
// adjacency, FIFOs, and congestion tables once; Run then serves an
// arbitrary sequence of demands with zero steady-state allocations.
// Scheduler.Clone returns an independent handle over the same immutable
// core, so many goroutines can Run demands on one decomposition in
// parallel with results byte-identical to serial runs.
type Scheduler = cast.Scheduler

// FaultPlan describes a deterministic failure scenario for
// Scheduler.RunFaulted: explicit and/or PCG-seeded random edge and
// vertex kills applied from a chosen round, with a bounded per-message
// reroute budget over the surviving trees.
type FaultPlan = cast.FaultPlan

// FaultResult is a faulted run's outcome: the usual BroadcastResult
// plus delivered-fraction, per-tree survival, and retry/round-overhead
// accounting. Partial delivery is reported here, never as an error.
type FaultResult = cast.FaultResult

// Options configures the packing algorithms; the zero value uses the
// defaults the experiments were calibrated with. Use the With* helpers.
type Options struct {
	cds cds.Options
	stp stp.Options
	err error
}

// fail records the first invalid option; entry points surface it before
// running anything, so a bad parameter errors at the API boundary
// instead of silently misbehaving deep in a packer.
func (o *Options) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// Option customizes Options.
type Option func(*Options)

// WithSeed fixes all randomness; identical seeds give identical results.
func WithSeed(seed uint64) Option {
	return func(o *Options) {
		o.cds.Seed = seed
		o.stp.Seed = seed
	}
}

// WithKnownConnectivity skips the try-and-error loop (dominating trees)
// or the min-cut estimation (spanning trees) by asserting the graph's
// connectivity. The asserted connectivity must be at least 1.
func WithKnownConnectivity(k int) Option {
	return func(o *Options) {
		if k < 1 {
			o.fail(fmt.Errorf("decomp: WithKnownConnectivity(%d): connectivity must be >= 1", k))
			return
		}
		o.stp.KnownLambda = k
	}
}

// WithEpsilon sets the spanning-tree packing's ε. The default is 0.1
// for PackSpanningTrees and IntegralSpanningTrees and 0.15 for
// PackSpanningTreesDistributed. ε must lie in (0, 1): the packer would
// otherwise silently substitute its default.
func WithEpsilon(eps float64) Option {
	return func(o *Options) {
		if eps <= 0 || eps >= 1 {
			o.fail(fmt.Errorf("decomp: WithEpsilon(%g): epsilon must be in (0, 1)", eps))
			return
		}
		o.stp.Epsilon = eps
	}
}

// WithClassFactor overrides t = ClassFactor·k-hat in the CDS packing.
// The factor must be positive.
func WithClassFactor(f float64) Option {
	return func(o *Options) {
		if f <= 0 {
			o.fail(fmt.Errorf("decomp: WithClassFactor(%g): factor must be > 0", f))
			return
		}
		o.cds.ClassFactor = f
	}
}

func buildOptions(opts []Option) (Options, error) {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o, o.err
}

// --- Graph construction -------------------------------------------------

// NewGraph builds a graph on n vertices from an edge list; duplicates
// and self-loops are dropped.
func NewGraph(n int, edges [][2]int) *Graph { return graph.FromEdgeList(n, edges) }

// Hypercube returns the d-dimensional hypercube (κ = λ = d).
func Hypercube(d int) *Graph { return graph.Hypercube(d) }

// Complete returns K_n (κ = λ = n-1).
func Complete(n int) *Graph { return graph.Complete(n) }

// Torus returns the rows×cols wraparound grid (κ = λ = 4 for sizes >= 3).
func Torus(rows, cols int) *Graph { return graph.Torus(rows, cols) }

// Harary returns the minimal k-connected graph H_{k,n} (κ = λ = k).
func Harary(k, n int) (*Graph, error) { return graph.Harary(k, n) }

// RandomRegular returns a random d-regular graph (d-connected w.h.p.
// for d >= 3).
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	return graph.RandomRegular(n, d, ds.NewRand(seed))
}

// RandomHamCycles returns the union of c random Hamiltonian cycles
// (connectivity 2c w.h.p.).
func RandomHamCycles(n, c int, seed uint64) *Graph {
	return graph.RandomHamCycles(n, c, ds.NewRand(seed))
}

// Gnp returns an Erdős–Rényi random graph.
func Gnp(n int, p float64, seed uint64) *Graph {
	return graph.Gnp(n, p, ds.NewRand(seed))
}

// --- Connectivity -------------------------------------------------------

// VertexConnectivity computes the exact vertex connectivity κ(G)
// (Even's algorithm over unit-capacity max-flows).
func VertexConnectivity(g *Graph) int { return flow.VertexConnectivity(g) }

// EdgeConnectivity computes the exact edge connectivity λ(G).
func EdgeConnectivity(g *Graph) int { return flow.EdgeConnectivity(g) }

// ApproxVertexConnectivity estimates κ(G) within an O(log n) factor via
// the dominating-tree packing (Corollary 1.7): the estimate never
// exceeds κ and is Ω(κ/log n) w.h.p.
func ApproxVertexConnectivity(g *Graph, opts ...Option) (float64, *DominatingTreePacking, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return 0, nil, err
	}
	return cds.ApproxVertexConnectivity(g, o.cds)
}

// ApproxVertexConnectivityDistributed is the distributed half of
// Corollary 1.7: the same O(log n)-approximation computed by the
// V-CONGEST protocol in O~(D+√n) rounds, returned with its meter.
func ApproxVertexConnectivityDistributed(g *Graph, opts ...Option) (float64, *DistDominatingResult, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return 0, nil, err
	}
	res, err := cdsdist.Pack(g, o.cds)
	if err != nil {
		return 0, nil, err
	}
	return res.Packing.Size(), res, nil
}

// SparseCertificate returns a spanning subgraph with at most k(n-1)
// edges preserving edge connectivity up to k (Nagamochi–Ibaraki /
// Thurimella [49], the sparsification primitive behind Theorem B.2).
func SparseCertificate(g *Graph, k int) *Graph { return graph.SparseCertificate(g, k) }

// --- Packings -----------------------------------------------------------

// PackDominatingTrees runs the centralized O~(m) fractional
// dominating-tree packing (Theorem 1.2), including the try-and-error
// connectivity search of Remark 3.1.
func PackDominatingTrees(g *Graph, opts ...Option) (*DominatingTreePacking, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return cds.Pack(g, o.cds)
}

// PackDominatingTreesDistributed runs the V-CONGEST protocol of
// Theorem 1.1 on the simulator and returns the packing with its round
// meter.
func PackDominatingTreesDistributed(g *Graph, opts ...Option) (*DistDominatingResult, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return cdsdist.Pack(g, o.cds)
}

// PackDominatingTreesDistributedWithGuess runs the Theorem 1.1 protocol
// with a known 2-approximation of κ, skipping the try-and-error loop.
func PackDominatingTreesDistributedWithGuess(g *Graph, kGuess int, opts ...Option) (*DistDominatingResult, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return cdsdist.PackWithGuess(g, kGuess, o.cds)
}

// PackSpanningTrees runs the centralized fractional spanning-tree
// packing (Section 5): size ⌈(λ-1)/2⌉(1-O(ε)).
func PackSpanningTrees(g *Graph, opts ...Option) (*SpanningTreePacking, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return stp.Pack(g, o.stp)
}

// PackSpanningTreesDistributed runs the E-CONGEST protocol of
// Theorem 1.3 on the simulator. Its default ε is 0.15, not the
// centralized packer's 0.1.
func PackSpanningTreesDistributed(g *Graph, opts ...Option) (*DistSpanningResult, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return stpdist.Pack(g, o.stp)
}

// IntegralSpanningTrees returns edge-disjoint spanning trees of count
// Ω(λ/log n) (the integral variant noted under Theorem 1.3).
func IntegralSpanningTrees(g *Graph, opts ...Option) ([]*Tree, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return stp.IntegralPack(g, o.stp)
}

// DisjointDominatingTrees extracts vertex-disjoint dominating trees from
// a fractional packing (the integral adaptation of Section 1.2).
func DisjointDominatingTrees(g *Graph, p *DominatingTreePacking) []*Tree {
	return cds.ExtractDisjoint(g, p)
}

// IndependentSpanningTrees converts vertex-disjoint dominating trees
// into vertex independent spanning trees rooted at root (Section 1.4.1):
// for every vertex, the root paths in different trees are internally
// vertex-disjoint — an algorithmic poly-log approximation of the
// Zehavi–Itai conjecture.
func IndependentSpanningTrees(g *Graph, disjoint []*Tree, root int) ([]*Tree, error) {
	return cds.IndependentTrees(g, disjoint, root)
}

// --- Information dissemination ------------------------------------------

// NewBroadcastScheduler builds a reusable V-CONGEST broadcast handle
// over a dominating-tree packing (Corollary 1.4 served in steady state):
// s.Run(decomp.Demand{Sources: srcs}, seed) is equivalent to
// Broadcast(g, p, srcs, seed) without the per-call setup.
func NewBroadcastScheduler(g *Graph, p *DominatingTreePacking) (*Scheduler, error) {
	return cast.NewScheduler(g, domToWeighted(p), sim.VCongest)
}

// NewEdgeBroadcastScheduler builds a reusable E-CONGEST broadcast handle
// over a spanning-tree packing (Corollary 1.5 served in steady state):
// s.Run(decomp.Demand{Sources: srcs}, seed) is equivalent to
// BroadcastEdges(g, p, srcs, seed) without the per-call setup.
func NewEdgeBroadcastScheduler(g *Graph, p *SpanningTreePacking) (*Scheduler, error) {
	return cast.NewScheduler(g, spanToWeighted(p), sim.ECongest)
}

// Broadcast routes each message along a random tree of the dominating-
// tree packing in the V-CONGEST model (Corollary 1.4).
func Broadcast(g *Graph, p *DominatingTreePacking, sources []int, seed uint64) (BroadcastResult, error) {
	return cast.Broadcast(g, domToWeighted(p), cast.Demand{Sources: sources}, sim.VCongest, seed)
}

// BroadcastEdges routes each message along a random spanning tree in the
// E-CONGEST model (Corollary 1.5).
func BroadcastEdges(g *Graph, p *SpanningTreePacking, sources []int, seed uint64) (BroadcastResult, error) {
	return cast.Broadcast(g, spanToWeighted(p), cast.Demand{Sources: sources}, sim.ECongest, seed)
}

// Gossip performs all-to-all broadcast (Appendix A): one message per
// node, routed through the dominating-tree packing.
func Gossip(g *Graph, p *DominatingTreePacking, seed uint64) (BroadcastResult, error) {
	return cast.Broadcast(g, domToWeighted(p), cast.AllToAll(g.N()), sim.VCongest, seed)
}

// SingleTreeBroadcast is the throughput-1 baseline: all messages over
// one pipelined BFS tree.
func SingleTreeBroadcast(g *Graph, sources []int, model Model, seed uint64) (BroadcastResult, error) {
	return cast.SingleTreeBaseline(g, cast.Demand{Sources: sources}, model, seed)
}

// UniformSources draws nMsgs message sources uniformly at random.
func UniformSources(n, nMsgs int, seed uint64) []int {
	return cast.UniformDemand(n, nMsgs, ds.NewRand(seed)).Sources
}

func domToWeighted(p *DominatingTreePacking) []cast.WeightedTree {
	out := make([]cast.WeightedTree, len(p.Trees))
	for i, t := range p.Trees {
		out[i] = cast.WeightedTree{Tree: t.Tree, Weight: t.Weight}
	}
	return out
}

func spanToWeighted(p *SpanningTreePacking) []cast.WeightedTree {
	out := make([]cast.WeightedTree, len(p.Trees))
	for i, t := range p.Trees {
		out[i] = cast.WeightedTree{Tree: t.Tree, Weight: t.Weight}
	}
	return out
}

// --- Serving ------------------------------------------------------------

// Service is the concurrent decomposition-and-broadcast service: a graph
// registry keyed by content hash, a per-(graph, kind) packing cache with
// singleflight semantics (N concurrent requests trigger exactly one
// packing), a free list of Scheduler handles per cached decomposition, and
// bounded-concurrency demand execution with per-graph and global stats.
type Service = serve.Service

// ServiceConfig tunes a Service (concurrency, packing seed and ε,
// demand and batch limits, snapshot store, residency bound); the zero
// value uses calibrated defaults.
type ServiceConfig = serve.Config

// ServiceStats is a snapshot of the service counters (requests, cache
// hits, rounds, congestion maxima), globally and per graph.
type ServiceStats = serve.Stats

// ServiceGraphStats is the per-graph slice of ServiceStats.
type ServiceGraphStats = serve.GraphStats

// DecompositionKind selects which decomposition a service request is
// served over.
type DecompositionKind = serve.Kind

// The two decomposition kinds a Service caches and serves.
const (
	// KindDominating: Theorem 1.2 dominating trees, V-CONGEST broadcast.
	KindDominating = serve.Dominating
	// KindSpanning: Theorem 1.3 spanning trees, E-CONGEST broadcast.
	KindSpanning = serve.Spanning
)

// DecompositionInfo describes a cached (or just-computed) service
// decomposition.
type DecompositionInfo = serve.DecompInfo

// PackProfile is the packer-internal instrumentation a freshly
// computed DecompositionInfo carries (nil on cache and store hits):
// MWU iteration, stop-check, and dedup counters for spanning packs;
// layer and connectivity-class matching counters for dominating packs.
// The serving layer also attaches it to the request's trace.
type PackProfile = serve.PackProfile

// BatchDemand is one demand of a service batch: a source list plus the
// seed its tree assignment draws from.
type BatchDemand = serve.BatchDemand

// BatchEntry is one batch demand's outcome — exactly one of Result and
// Error is set.
type BatchEntry = serve.BatchEntry

// BatchSummary aggregates a batch (entry counts, messages, rounds).
type BatchSummary = serve.BatchSummary

// BatchResult is a batch's structured outcome: per-demand entries in
// demand order plus the summary.
type BatchResult = serve.BatchResult

// BatchEvent is one event of a streamed service batch: a completed (or
// rejected) batch entry, or the terminal batch summary. Seq is the
// event's 1-based position in its batch's stream.
type BatchEvent = serve.BatchEvent

// NewService builds an empty decomposition service.
func NewService(cfg ServiceConfig) *Service { return serve.New(cfg) }

// NewServiceHandler mounts the service's JSON HTTP API (the interface
// cmd/serve exposes: register graph, request decomposition, submit
// broadcast demand, stats).
func NewServiceHandler(s *Service) http.Handler { return serve.NewHandler(s) }

// GraphID returns the content-hash registry key a Service would assign
// the graph.
func GraphID(g *Graph) string { return serve.GraphID(g) }
