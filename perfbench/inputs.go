package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/cast"
	"repro/internal/graph"
	"repro/internal/serve"
)

// Everything a workload sends is generated here from the workload seed;
// the program under test only ever receives these inputs. Each op draws
// from its own PCG stream keyed by (seed, domain, op index), so op i has
// the same inputs however many ops ran before it or on which connection.

// Random-stream domains, one per kind of generated input.
const (
	domGraphs = iota + 1
	domOps
	domBlocks
	domDemands
)

func newRand(seed uint64, domain, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(domain)<<48|uint64(i)))
}

// family is a graph of known connectivity: κ = λ = conn.
type family struct {
	name string
	conn int
	make func() *graph.Graph
}

func harary(k, n int) family {
	return family{fmt.Sprintf("H(%d,%d)", k, n), k, func() *graph.Graph {
		g, err := graph.Harary(k, n)
		if err != nil {
			panic(err) // the decks use fixed, valid parameters
		}
		return g
	}}
}

func hypercube(d int) family {
	return family{fmt.Sprintf("Q%d", d), d, func() *graph.Graph { return graph.Hypercube(d) }}
}

func torus(r, c int) family {
	return family{fmt.Sprintf("T%dx%d", r, c), 4, func() *graph.Graph { return graph.Torus(r, c) }}
}

func complete(n int) family {
	return family{fmt.Sprintf("K%d", n), n - 1, func() *graph.Graph { return graph.Complete(n) }}
}

func cliqueChain(cliques, size, bridge int) family {
	return family{fmt.Sprintf("CC(%d,%d,%d)", cliques, size, bridge), min(bridge, size-1), func() *graph.Graph {
		g, err := graph.CliqueChain(cliques, size, bridge)
		if err != nil {
			panic(err)
		}
		return g
	}}
}

// packDeck is cold-pack's family deck: every block of ops packs each of
// these once per kind, so every seed sees the same mix of sizes.
var packDeck = []family{
	hypercube(5), hypercube(6), hypercube(7), hypercube(8),
	torus(8, 8), torus(12, 12), torus(16, 16),
	harary(6, 64), harary(8, 112), harary(10, 96), harary(12, 160),
	cliqueChain(8, 8, 4), cliqueChain(6, 12, 6),
}

// reloadCatalogue is warm-reload's store catalogue. Its length is odd,
// so the median op of a whole cycle is one graph's reload rather than
// the boundary between two.
var reloadCatalogue = []family{
	hypercube(5), hypercube(6), hypercube(7),
	torus(8, 8), torus(10, 10), torus(12, 12),
	harary(6, 96), harary(8, 64), harary(9, 112), harary(10, 128),
	cliqueChain(6, 12, 6), cliqueChain(8, 8, 4), complete(20),
}

// distDeck is sim-dist's deck of (graph, kind) packings; it spans both
// sides of the simulator's n >= 64 parallel threshold. Its length is
// odd for the same reason as reloadCatalogue's.
var distDeck = func() []distSlot {
	var d []distSlot
	for _, f := range []family{
		hypercube(4), hypercube(5), hypercube(6), complete(16), torus(8, 8),
		harary(4, 32), harary(4, 64), harary(4, 128), harary(5, 32), harary(5, 64),
		harary(6, 32), harary(6, 64), cliqueChain(4, 8, 4), cliqueChain(8, 6, 3),
	} {
		for _, k := range kinds {
			d = append(d, distSlot{f, k})
		}
	}
	// λ = 3 takes the spanning packer's trivial low-λ path; dropping it
	// makes the deck odd.
	return d[:len(d)-1]
}()

type distSlot struct {
	f    family
	kind serve.Kind
}

// graphInput is one generated graph as the program receives it.
type graphInput struct {
	Family string   `json:"family"`
	Conn   int      `json:"conn"` // κ = λ
	N      int      `json:"n"`
	Edges  [][2]int `json:"edges"`
}

func (gi graphInput) graph() *graph.Graph { return graph.FromEdgeList(gi.N, gi.Edges) }

// relabel returns f's graph under a uniformly random vertex
// permutation, so each op gets a graph the service has not seen
// (except K_n, which every relabelling maps to itself).
func relabel(f family, rng *rand.Rand) graphInput {
	g := f.make()
	perm := rng.Perm(g.N())
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{perm[e.U], perm[e.V]})
	}
	return graphInput{Family: f.name, Conn: f.conn, N: g.N(), Edges: edges}
}

func edgeList(g *graph.Graph) [][2]int {
	out := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		out = append(out, [2]int{int(e.U), int(e.V)})
	}
	return out
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int) int {
	v := int(math.Floor(float64(lo) * math.Pow(float64(hi+1)/float64(lo), rng.Float64())))
	return max(lo, min(hi, v))
}

func sources(rng *rand.Rand, n, msgs int) []int {
	out := make([]int, msgs)
	for i := range out {
		out[i] = rng.IntN(n)
	}
	return out
}

var kinds = [2]serve.Kind{serve.Dominating, serve.Spanning}

// ---- broadcast ----------------------------------------------------------

// broadcastGraphs are the four graphs broadcast registers. They are the
// same for every seed (RandomHamCycles draws from a fixed generator):
// a different graph is a different packing, which moved the rounds a
// block of demands takes by ~5% from seed to seed and set-up time with
// it. The seed picks the demands.
func broadcastGraphs() []graphInput {
	return []graphInput{
		{Family: "K16", Conn: 15, N: 16, Edges: edgeList(graph.Complete(16))},
		{Family: "K32", Conn: 31, N: 32, Edges: edgeList(graph.Complete(32))},
		{Family: "Q8", Conn: 8, N: 256, Edges: edgeList(graph.Hypercube(8))},
		{Family: "RHC(256,16)", Conn: 32, N: 256, Edges: edgeList(graph.RandomHamCycles(256, 16, newRand(1, domGraphs, 0)))},
	}
}

// Broadcast op types.
const (
	opSingle  = "single"
	opFaulted = "faulted"
	opBatch   = "batch"
	opStream  = "stream"
	opScrape  = "scrape"
)

// A broadcast block gives each of the eight decompositions 16 single
// demands (one per size stratum), 2 faulted ones and 2 batches (one
// plain, one streamed), and ends with one metrics scrape: ~80% single,
// ~10% faulted, ~10% batches, a scrape every 161 ops.
const (
	bcastSingles = 16
	bcastFaulted = 2
	bcastPerDec  = bcastSingles + bcastFaulted + 2
	bcastBlock   = 8*bcastPerDec + 1
	bcastMinMsgs = 16
	bcastMaxMsgs = 2048
	batchDemands = 8
	batchMaxMsgs = 128
	faultKills   = 3
	faultRetries = 2
	faultAtRound = 1
)

// bcastOp is one broadcast-workload op. Target indexes the eight
// decompositions as graph*2 + kind.
type bcastOp struct {
	Type    string              `json:"type"`
	Target  int                 `json:"target"`
	Sources []int               `json:"sources,omitempty"`
	Seed    uint64              `json:"seed"`
	Fault   *cast.FaultPlan     `json:"fault,omitempty"`
	Demands []serve.BatchDemand `json:"demands,omitempty"`
}

// stratified draws a demand size log-uniformly from stratum k of
// strata equal slices of [bcastMinMsgs, bcastMaxMsgs].
func stratified(rng *rand.Rand, k, strata int) int {
	u := (float64(k) + rng.Float64()) / float64(strata)
	v := int(math.Floor(bcastMinMsgs * math.Pow(float64(bcastMaxMsgs+1)/bcastMinMsgs, u)))
	return max(bcastMinMsgs, min(bcastMaxMsgs, v))
}

// broadcastOp generates op i. Each block holds the same op mix (see
// bcastBlock) in a seeded order; demand sizes are log-uniform in
// [16, 2048], stratified per decomposition; faulted demands kill 3
// random edges at round 1 and allow 2 retries; batch demands carry
// log-uniform [16, 128] messages.
func broadcastOp(seed uint64, i int, graphs []graphInput) bcastOp {
	b, slot := i/bcastBlock, i%bcastBlock
	role := newRand(seed, domBlocks, b).Perm(bcastBlock)[slot]
	if role == bcastBlock-1 {
		return bcastOp{Type: opScrape}
	}
	rng := newRand(seed, domOps, i)
	op := bcastOp{Target: role / bcastPerDec, Seed: rng.Uint64()}
	n := graphs[op.Target/2].N
	switch k := role % bcastPerDec; {
	case k < bcastSingles:
		op.Type = opSingle
		op.Sources = sources(rng, n, stratified(rng, k, bcastSingles))
	case k < bcastSingles+bcastFaulted:
		op.Type = opFaulted
		op.Sources = sources(rng, n, stratified(rng, k-bcastSingles, bcastFaulted))
		op.Fault = &cast.FaultPlan{Round: faultAtRound, RandomEdges: faultKills, Seed: rng.Uint64(), MaxRetries: faultRetries}
	default:
		op.Type = opBatch
		if k == bcastPerDec-1 {
			op.Type = opStream
		}
		op.Demands = make([]serve.BatchDemand, batchDemands)
		for j := range op.Demands {
			op.Demands[j] = serve.BatchDemand{Sources: sources(rng, n, logUniform(rng, bcastMinMsgs, batchMaxMsgs)), Seed: rng.Uint64()}
		}
	}
	return op
}

// ---- cold-pack ------------------------------------------------------------

// packOp is one cold-pack op: register a new graph, then pack one kind.
type packOp struct {
	Graph graphInput `json:"graph"`
	Kind  serve.Kind `json:"kind"`
}

// blockLen is cold-pack's block: the deck once per kind plus one slot
// for a complete graph. K12..K32 each appear at most once per run (a
// relabelled K_n is the same graph); later blocks fill that slot with
// one more deck graph.
var blockLen = 2*len(packDeck) + 1

// coldPackOp generates op i. Within a block the kinds alternate and the
// deck order is shuffled per block.
func coldPackOp(seed uint64, i int) packOp {
	b, slot := i/blockLen, i%blockLen
	rng := newRand(seed, domOps, i)
	if slot == blockLen-1 {
		kind := kinds[b%2]
		if n := 12 + b; n <= 32 {
			return packOp{relabel(complete(n), rng), kind}
		}
		return packOp{relabel(packDeck[rng.IntN(len(packDeck))], rng), kind}
	}
	brng := newRand(seed, domBlocks, b)
	dom, spn := brng.Perm(len(packDeck)), brng.Perm(len(packDeck))
	order := dom
	if slot%2 == 1 {
		order = spn
	}
	return packOp{relabel(packDeck[order[slot/2]], rng), kinds[slot%2]}
}

// ---- warm-reload -------------------------------------------------------------

// reloadGraphs are the catalogue graphs, with the kind order each
// graph's visits use. The graphs are not relabelled: a relabelling
// changes the packing and with it the number of trees every reload
// decodes, which moved op_p50_ms by ~20% from seed to seed. The seed
// picks the kind orders, the visit order and the demands.
func reloadGraphs(seed uint64) ([]graphInput, [][2]serve.Kind) {
	rng := newRand(seed, domGraphs, 0)
	gs := make([]graphInput, len(reloadCatalogue))
	order := make([][2]serve.Kind, len(reloadCatalogue))
	for i, f := range reloadCatalogue {
		g := f.make()
		gs[i] = graphInput{Family: f.name, Conn: f.conn, N: g.N(), Edges: edgeList(g)}
		order[i] = kinds
		if rng.IntN(2) == 1 {
			order[i] = [2]serve.Kind{serve.Spanning, serve.Dominating}
		}
	}
	return gs, order
}

// reloadOp is one warm-reload op: a visit to one graph, broadcasting n
// messages over each of its two decompositions in the graph's kind
// order.
type reloadOp struct {
	Graph   int           `json:"graph"`
	Kinds   [2]serve.Kind `json:"kinds"`
	Sources [2][]int      `json:"sources"`
	Seeds   [2]uint64     `json:"seeds"`
}

// reloadOpAt generates op i; each cycle of ops visits every graph once
// in a seeded order. A visit always requests the graph's two kinds in
// the same order, so with one resident decomposition per registry
// segment its first request finds the other kind resident at most
// (loaded last visit) and its second finds the first's just-evicted
// partner gone: every request reloads from the store, however graphs
// map to segments.
func reloadOpAt(seed uint64, i int, graphs []graphInput, order [][2]serve.Kind) reloadOp {
	c, pos := i/len(graphs), i%len(graphs)
	g := newRand(seed, domBlocks, c).Perm(len(graphs))[pos]
	rng := newRand(seed, domOps, i)
	n := graphs[g].N
	op := reloadOp{Graph: g, Kinds: order[g]}
	for k := range op.Kinds {
		op.Sources[k], op.Seeds[k] = sources(rng, n, n), rng.Uint64()
	}
	return op
}

// ---- sim-dist ----------------------------------------------------------------

// distOp is one sim-dist op: a distributed packing of one kind.
type distOp struct {
	Graph graphInput `json:"graph"`
	Kind  serve.Kind `json:"kind"`
	Seed  uint64     `json:"seed"`
}

// distOpAt generates op i; each block packs every deck slot once in a
// seeded order.
func distOpAt(seed uint64, i int) distOp {
	b, slot := i/len(distDeck), i%len(distDeck)
	d := distDeck[newRand(seed, domBlocks, b).Perm(len(distDeck))[slot]]
	rng := newRand(seed, domOps, i)
	return distOp{Graph: relabel(d.f, rng), Kind: d.kind, Seed: rng.Uint64()}
}
