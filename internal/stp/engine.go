package stp

import (
	"fmt"
	"math"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/mst"
)

// MSTOracle computes one MWU iteration's minimum spanning tree under the
// engine's current per-edge loads and returns the chosen edge ids plus
// the distributed rounds the computation cost (0 for centralized
// oracles). Centralized oracles should return the edges in the engine's
// maintained (load, id) order; distributed oracles may return them in
// any order (internal/dist returns them id-sorted).
type MSTOracle func(e *Engine) (chosen []int, rounds int, err error)

// Engine is the Section 5.1 Lagrangian-relaxation loop shared by the
// centralized (internal/stp) and distributed (internal/stpdist)
// spanning-tree packers, parameterized by the MST oracle. Its hot path
// is incremental:
//
//   - The per-iteration (1-β) rescale preserves relative edge order, so
//     instead of re-sorting all m edges per iteration the engine keeps a
//     ds.OrderedLoads permutation and folds the n-1 bumped tree edges
//     back in with one O(m) merge (same weight-then-edge-id tie-break,
//     so the centralized oracle's union-find scan picks bit-identical
//     trees).
//   - max_e z_e reads off the order's tail in O(1).
//   - The Lemma F.1 stop test (Cost(MST) > (1-ε)·Σ c_e·x_e with
//     c_e = exp(α·z_e)) sums Σ c_e·x_e from the heaviest end of the
//     maintained order. Every term is non-negative, so every prefix is
//     a lower bound on the full sum, and once (1-ε)·prefix clears
//     Cost(MST) the certificate cannot fire; far from convergence that
//     takes a few terms instead of m. Only a prefix that runs out of
//     loaded edges falls back to the full O(m) evaluation in edge-id
//     order, so the stop iteration — and with it the packing — is
//     unchanged.
//   - Distinct trees are deduplicated by an order-independent set hash
//     of their edge ids (the wrapping sum of a 64-bit mix of each id),
//     so the oracle's edges need no sort. A hash hit stamps the chosen
//     ids in a per-edge array and accepts an entry only if all of its
//     n-1 ids are stamped. New trees are materialized through a pooled
//     graph.TreePool builder, which builds the same rooted tree from
//     any edge order.
//
// The engine does not stop on its own after the Lemma F.1 test is
// guarded: the first Step seeds the collection with the oracle's tree at
// weight 1 and skips the stop test entirely (all loads are still zero,
// which would trivially satisfy it — the iters > 1 guard both loops now
// share). Callers bound the loop with their own iteration cap.
type Engine struct {
	g       *graph.Graph
	lambda  int
	halfLam int
	eps     float64
	alpha   float64
	beta    float64

	x     []float64        // per-edge load x_e (z_e = x_e·halfLam)
	order *ds.OrderedLoads // edge ids sorted by (x_e, id)

	entries  []*packEntry
	sigIndex map[uint64][]int32 // set hash of a tree's edge ids -> entry indices

	// Scratch reused across iterations.
	uf      *ds.UnionFind
	chosen  []int   // centralized oracle output
	byLoad  []int32 // chosen sorted by (load, id), merge input
	mark    []int32 // per edge id: in the tree being deduplicated iff == markGen
	markGen int32
	pool    *graph.TreePool
	costMST *mst.LogSumExp
	costAll *mst.LogSumExp

	logOneMinusE float64 // log(1-ε)

	oracle MSTOracle
	iters  int
	done   bool

	// Profiling counters copied into Stats by Finish (observability only;
	// none of these feed the fingerprint).
	stopExact   int // stop tests decided by the full O(m) evaluation
	stopSkipped int // stop tests a heaviest-first prefix ruled out
	dedupHits   int // trees folded into an existing entry by signature
}

// packEntry is one distinct tree of the collection with its accumulated
// weight, before Finish rescales it; ids holds its edge ids, in the
// order the oracle first returned them, for hash-collision
// verification.
type packEntry struct {
	graph.WeightedTree
	ids []int32
}

// prefixMargin is the log-domain margin by which (1-ε)·prefix must clear
// Cost(MST) before the stop test returns early. The prefix and the full
// evaluation sum the same terms in different orders; each LogSumExp's
// float error is ~m·ulp of its result (≪ 1e-9 in the log domain), so a
// prefix that clears by 1e-6 cannot disagree with the full evaluation.
const prefixMargin = 1e-6

// NewEngine returns an engine over g for edge connectivity lambda. opts
// must already be normalized (Pack and stpdist.Pack both normalize
// before constructing engines); only Epsilon is read.
func NewEngine(g *graph.Graph, lambda int, opts Options, oracle MSTOracle) *Engine {
	n, m := g.N(), g.M()
	halfLam := ceilHalf(lambda - 1) // ⌈(λ-1)/2⌉, the Tutte/Nash-Williams bound
	if halfLam < 1 {
		halfLam = 1
	}
	eps := opts.Epsilon
	alpha := math.Log(2*float64(m)/eps) / eps
	return &Engine{
		g:            g,
		lambda:       lambda,
		halfLam:      halfLam,
		eps:          eps,
		alpha:        alpha,
		beta:         1 / (alpha * float64(halfLam)),
		x:            make([]float64, m),
		order:        ds.NewOrderedLoads(m),
		sigIndex:     make(map[uint64][]int32),
		uf:           ds.NewUnionFind(n),
		chosen:       make([]int, 0, n-1),
		byLoad:       make([]int32, 0, n-1),
		mark:         make([]int32, m),
		pool:         graph.NewTreePool(n),
		costMST:      mst.NewLogSumExp(),
		costAll:      mst.NewLogSumExp(),
		logOneMinusE: math.Log(1 - eps),
		oracle:       oracle,
	}
}

// Graph returns the host graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// HalfLambda returns ⌈(λ-1)/2⌉ clamped to at least 1, the packing-size
// target the loads are scaled by.
func (e *Engine) HalfLambda() int { return e.halfLam }

// Loads returns the per-edge load vector x_e (z_e = x_e·HalfLambda()).
// The slice is owned by the engine; oracles read it, nobody writes it.
func (e *Engine) Loads() []float64 { return e.x }

// Done reports whether the Lemma F.1 stop test (or the direct load
// check) has fired.
func (e *Engine) Done() bool { return e.done }

// Iterations returns the number of Steps taken, including the initial
// weight-1 tree and the step on which the stop test fired.
func (e *Engine) Iterations() int { return e.iters }

// Step runs one MWU iteration: MST under the current loads, the stop
// test (skipped on the first step — see the type comment), and the
// (1-β)-rescale-plus-β-bump collection update. It returns the oracle's
// distributed rounds.
func (e *Engine) Step() (int, error) {
	if e.done {
		return 0, fmt.Errorf("stp: Step after engine stopped")
	}
	e.iters++
	chosen, rounds, err := e.oracle(e)
	if err != nil {
		return rounds, err
	}
	if e.iters > 1 && e.shouldStop(chosen) {
		e.done = true
		return rounds, nil
	}
	beta := e.beta
	if e.iters == 1 {
		beta = 1 // first tree takes all the weight
	}
	if err := e.addTree(chosen, beta); err != nil {
		return rounds, err
	}
	return rounds, nil
}

// MaxLoad returns max_e z_e in O(1) from the maintained order's tail.
func (e *Engine) MaxLoad() float64 {
	return e.x[e.order.MaxID()] * float64(e.halfLam)
}

// shouldStop evaluates the two stop conditions of the Section 5.1 loop:
// the direct load check maxZ <= 1+2ε and the Lemma F.1 certificate
// Cost(MST) > (1-ε)·Σ c_e·x_e. The O(1) load check runs first. Cost(MST)
// is then computed exactly, and Σ c_e·x_e is summed from the heaviest
// edge down until (1-ε)·prefix clears Cost(MST) by prefixMargin, which
// rules the certificate out. A prefix that runs out of loaded edges
// leaves the decision to the full evaluation in edge-id order.
func (e *Engine) shouldStop(chosen []int) bool {
	halfLamF := float64(e.halfLam)
	if e.MaxLoad() <= 1+2*e.eps {
		return true
	}

	e.costMST.Reset()
	for _, c := range chosen {
		e.costMST.Add(e.alpha*e.x[c]*halfLamF, 1)
	}
	bar := e.costMST.Log() + prefixMargin - e.logOneMinusE
	e.costAll.Reset()
	order := e.order.Order()
	for i := len(order) - 1; i >= 0; i-- {
		x := e.x[order[i]]
		if x == 0 {
			break // the rest of the prefix adds nothing
		}
		e.costAll.Add(e.alpha*(x*halfLamF), x)
		if e.costAll.Log() > bar {
			e.stopSkipped++
			return false
		}
	}
	e.stopExact++

	e.costAll.Reset()
	for i := range e.x {
		z := e.x[i] * halfLamF
		e.costAll.Add(e.alpha*z, e.x[i])
	}
	return e.costMST.GreaterThan(e.costAll, 1-e.eps)
}

// addTree folds the chosen tree into the collection at weight beta:
// scale everything old by (1-beta), bump the tree edges, restore the
// maintained order, and deduplicate against the existing trees.
func (e *Engine) addTree(chosen []int, beta float64) error {
	for _, ent := range e.entries {
		ent.Weight *= 1 - beta
	}
	for i := range e.x {
		e.x[i] *= 1 - beta
	}
	for _, c := range chosen {
		e.x[c] += beta
	}

	// The merge wants the bumped ids sorted by (load, id) under the new
	// loads. The centralized oracle already emits that order (the bump
	// is load-monotone), so the insertion sort is a linear verification
	// pass; the distributed oracle's id-sorted output reorders cheaply.
	byLoad := e.byLoad[:0]
	for _, c := range chosen {
		byLoad = append(byLoad, int32(c))
	}
	for i := 1; i < len(byLoad); i++ {
		for j := i; j > 0; j-- {
			a, b := byLoad[j-1], byLoad[j]
			if e.x[a] < e.x[b] || (e.x[a] == e.x[b] && a < b) {
				break
			}
			byLoad[j-1], byLoad[j] = b, a
		}
	}
	e.byLoad = byLoad
	e.order.Reorder(e.x, byLoad)

	sig := edgeSetHash(chosen)
	if idxs := e.sigIndex[sig]; len(idxs) > 0 {
		e.markGen++
		for _, c := range chosen {
			e.mark[c] = e.markGen
		}
		for _, idx := range idxs {
			if ent := e.entries[idx]; e.marksAll(ent.ids, len(chosen)) {
				ent.Weight += beta
				e.dedupHits++
				return nil
			}
		}
	}
	tree, err := e.pool.SpanningFromEdgeIDs(e.g, chosen, 0)
	if err != nil {
		return fmt.Errorf("stp: oracle tree invalid: %w", err)
	}
	ids := make([]int32, len(chosen))
	for i, id := range chosen {
		ids[i] = int32(id)
	}
	e.entries = append(e.entries, &packEntry{WeightedTree: graph.WeightedTree{Tree: tree, Weight: beta}, ids: ids})
	e.sigIndex[sig] = append(e.sigIndex[sig], int32(len(e.entries)-1))
	return nil
}

// Finish rescales the collection into a valid packing: weights
// w_τ·halfLam/maxZ give per-edge load z_e/maxZ <= 1 and total size
// halfLam/maxZ >= halfLam(1-O(ε)).
func (e *Engine) Finish() *Packing {
	maxZ := e.MaxLoad()
	if maxZ <= 0 {
		maxZ = 1
	}
	scale := float64(e.halfLam) / maxZ
	p := &Packing{Stats: Stats{
		Lambda:            e.lambda,
		Iterations:        e.iters,
		MaxLoad:           maxZ,
		StopChecksExact:   e.stopExact,
		StopChecksSkipped: e.stopSkipped,
		DedupHits:         e.dedupHits,
	}}
	for _, ent := range e.entries {
		if w := ent.Weight * scale; w > 1e-12 {
			p.Trees = append(p.Trees, graph.WeightedTree{Tree: ent.Tree, Weight: w})
		}
	}
	p.Stats.DistinctTrees = len(p.Trees)
	return p
}

// KruskalOracle is the centralized MST oracle: because the engine keeps
// the edges sorted by (load, id), Kruskal reduces to one union-find scan
// — no per-iteration sort. The returned slice is engine scratch, valid
// until the next Step.
func KruskalOracle(e *Engine) ([]int, int, error) {
	e.uf.Reset()
	chosen := e.chosen[:0]
	want := e.g.N() - 1
	for _, id := range e.order.Order() {
		u, v := e.g.Endpoints(int(id))
		if e.uf.Union(u, v) {
			chosen = append(chosen, int(id))
			if len(chosen) == want {
				break
			}
		}
	}
	e.chosen = chosen
	return chosen, 0, nil
}

// edgeSetHash hashes a set of edge ids independently of their order:
// the wrapping sum of a SplitMix64 mix of each id.
func edgeSetHash(ids []int) uint64 {
	var h uint64
	for _, id := range ids {
		h += ds.Mix64(uint64(id) + 0x9e3779b97f4a7c15)
	}
	return h
}

// marksAll reports whether a stored tree's edge ids, which are
// distinct, number size and all carry the current markGen stamp. The
// stamps mark the size ids the oracle chose, so that is set equality.
func (e *Engine) marksAll(ids []int32, size int) bool {
	if len(ids) != size {
		return false
	}
	for _, id := range ids {
		if e.mark[id] != e.markGen {
			return false
		}
	}
	return true
}
