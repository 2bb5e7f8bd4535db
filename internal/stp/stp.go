// Package stp implements the fractional spanning-tree packing of
// Theorem 1.3: size ⌈(λ-1)/2⌉(1-ε) for graphs with edge connectivity λ.
//
// The core is the Lagrangian-relaxation loop of Section 5.1: maintain a
// weighted tree collection of total weight 1, penalize loaded edges with
// exponential costs c_e = exp(α·z_e), and repeatedly add the MST under
// those costs until Cost(MST) > (1-ε)·Σ c_e·x_e, at which point Lemma
// F.1 guarantees max_e z_e <= 1+6ε. Costs are handled in the log domain
// (mst.LogSumExp), so large exponents never overflow.
//
// For general λ, Section 5.2's random edge-sampling splits the graph
// into η spanning subgraphs of edge connectivity Θ(log n/ε²) each and
// packs them independently; edge-disjointness makes the union valid.
package stp

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/ds"
	"repro/internal/flow"
	"repro/internal/graph"
)

// Packing is a fractional spanning tree packing: Σ_{τ∋e} w_τ <= 1 for
// every edge e.
type Packing struct {
	Trees []graph.WeightedTree
	Stats Stats
}

// Stats records the run diagnostics.
type Stats struct {
	// Lambda is the edge connectivity (or estimate) the run scaled by.
	Lambda int
	// Iterations counts MWU iterations across all subgraphs.
	Iterations int
	// MaxLoad is max_e z_e before rescaling (Lemma F.1 bounds it 1+6ε).
	MaxLoad float64
	// Subgraphs is η, the number of sampled subgraphs the run attempted
	// (1 = no sampling).
	Subgraphs int
	// SubgraphsPacked counts the sampled subgraphs that actually packed;
	// disconnected samples (a low-probability event) are skipped, so the
	// Theorem 1.3 size accounting must divide by this, not by Subgraphs.
	SubgraphsPacked int
	// DistinctTrees counts distinct trees in the collection.
	DistinctTrees int
	// StopChecksSkipped counts Lemma F.1 stop tests that a heaviest-first
	// prefix of Σ c_e·x_e ruled out early; StopChecksExact counts those
	// whose prefix ran out of loaded edges and fell back to the full O(m)
	// evaluation. Tests decided by the maxZ <= 1+2ε load check count in
	// neither (observability only — neither feeds the fingerprint).
	StopChecksExact   int
	StopChecksSkipped int
	// DedupHits counts oracle trees folded into an existing entry by the
	// FNV signature index instead of allocating a new one.
	DedupHits int
}

// Size returns Σ w_τ.
func (p *Packing) Size() float64 {
	s := 0.0
	for _, t := range p.Trees {
		s += t.Weight
	}
	return s
}

// MaxEdgeTreeCount returns the maximum number of distinct trees using a
// single edge (Theorem 1.3's O(log^3 n) bound).
func (p *Packing) MaxEdgeTreeCount(g *graph.Graph) int {
	count := make([]int, g.M())
	for _, t := range p.Trees {
		t.Tree.ForEachEdge(func(child, parent int) {
			if id, ok := g.EdgeID(child, parent); ok {
				count[id]++
			}
		})
	}
	max := 0
	for _, c := range count {
		if c > max {
			max = c
		}
	}
	return max
}

// Validate checks the packing against g with check.SpanningPacking:
// every tree must be a spanning tree of g with positive weight, and no
// edge may carry load above 1 (+eps). Like the oracle it rejects an
// empty packing, which Pack never returns.
func (p *Packing) Validate(g *graph.Graph) error {
	return check.SpanningPacking(g, p.Trees, 1, 0)
}

// Options configures the packing. The zero value is usable.
type Options struct {
	// Seed drives the randomness (edge sampling).
	Seed uint64
	// Epsilon is the paper's ε. Unset or outside (0, 1), it defaults
	// to 0.1 in Pack and IntegralPack and to 0.15 in stpdist.Pack.
	Epsilon float64
	// KnownLambda skips connectivity estimation when > 0. Otherwise λ is
	// computed exactly with flow.EdgeConnectivity, standing in for the
	// paper's distributed 3-approximation of [21] (docs/ARCHITECTURE.md,
	// "Substitutions").
	KnownLambda int
	// SampleThreshold: subgraph sampling kicks in when λ exceeds this
	// multiple of log n/ε² (paper: constant ~20; default 6, scaled for
	// laptop-size graphs).
	SampleThreshold float64
}

func (o Options) normalize() Options {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		o.Epsilon = 0.1
	}
	if o.SampleThreshold <= 0 {
		o.SampleThreshold = 6
	}
	return o
}

// maxIters caps the MWU iterations per subgraph of an n-vertex graph at
// 80·log₂³(n+2)/ε, clamped to [2000, 60000]: a Θ(log^3 n)-flavored cap
// with the constants the analysis hides. The loop normally stops far
// earlier, on the maxZ <= 1+2ε load check.
func maxIters(n int, eps float64) int {
	l := math.Log2(float64(n) + 2)
	return min(max(int(80*l*l*l/eps), 2000), 60000)
}

// Pack computes a fractional spanning tree packing of g of size
// ⌈(λ-1)/2⌉(1-O(ε)).
func Pack(g *graph.Graph, opts Options) (*Packing, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("stp: graph too small (n=%d)", n)
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("stp: graph disconnected")
	}
	opts = opts.normalize()
	lambda := opts.KnownLambda
	if lambda <= 0 {
		lambda = flow.EdgeConnectivity(g)
	}
	if lambda < 1 {
		return nil, fmt.Errorf("stp: edge connectivity %d < 1", lambda)
	}

	logn := math.Log2(float64(n) + 2)
	cutoff := opts.SampleThreshold * logn / (opts.Epsilon * opts.Epsilon)
	if float64(lambda) <= cutoff {
		p, err := packLowLambda(g, lambda, opts)
		if err != nil {
			return nil, err
		}
		p.Stats.Subgraphs = 1
		p.Stats.SubgraphsPacked = 1
		return p, nil
	}

	// Section 5.2: split edges into η random subgraphs so each keeps
	// edge connectivity Θ(log n/ε²) w.h.p., pack each, and take the
	// union (valid because the subgraphs are edge-disjoint).
	eta := int(float64(lambda) / cutoff)
	if eta < 2 {
		eta = 2
	}
	rng := ds.NewRand(opts.Seed ^ 0x5eed)
	assign := make([]int, g.M())
	for e := range assign {
		assign[e] = rng.IntN(eta)
	}
	var out Packing
	out.Stats.Lambda = lambda
	out.Stats.Subgraphs = eta
	for i := 0; i < eta; i++ {
		sub := g.SubgraphByEdges(func(id int) bool { return assign[id] == i })
		if !graph.IsConnected(sub) {
			// Sampling failed for this subgraph (low-probability event);
			// skip it — the remaining subgraphs still pack Ω(λ).
			continue
		}
		subLambda := flow.EdgeConnectivity(sub)
		if subLambda < 1 {
			continue
		}
		subOpts := opts
		subOpts.KnownLambda = subLambda
		sp, err := packLowLambda(sub, subLambda, subOpts)
		if err != nil {
			return nil, fmt.Errorf("stp: subgraph %d: %w", i, err)
		}
		// Trees of a spanning subgraph are spanning trees of g; re-host
		// them (edges exist in g by construction).
		out.Trees = append(out.Trees, sp.Trees...)
		out.Stats.SubgraphsPacked++
		out.Stats.Iterations += sp.Stats.Iterations
		if sp.Stats.MaxLoad > out.Stats.MaxLoad {
			out.Stats.MaxLoad = sp.Stats.MaxLoad
		}
		out.Stats.DistinctTrees += sp.Stats.DistinctTrees
		out.Stats.StopChecksExact += sp.Stats.StopChecksExact
		out.Stats.StopChecksSkipped += sp.Stats.StopChecksSkipped
		out.Stats.DedupHits += sp.Stats.DedupHits
	}
	if len(out.Trees) == 0 {
		return nil, fmt.Errorf("stp: all %d sampled subgraphs were disconnected", eta)
	}
	return &out, nil
}

// packLowLambda is the Section 5.1 loop for λ = O(log n), run on the
// shared incremental Engine with the centralized Kruskal-order oracle.
// The first Step seeds the collection with a weight-1 spanning tree
// (Kruskal under all-zero loads = unit weights); every further Step is
// one MWU iteration, so Stats.Iterations keeps its historical meaning of
// MWU iterations after the initial tree.
func packLowLambda(g *graph.Graph, lambda int, opts Options) (*Packing, error) {
	eng := NewEngine(g, lambda, opts, KruskalOracle)
	if _, err := eng.Step(0); err != nil {
		return nil, err
	}
	for iter, limit := 0, maxIters(g.N(), opts.Epsilon); iter < limit && !eng.Done(); iter++ {
		if _, err := eng.Step(0); err != nil {
			return nil, err
		}
	}
	p := eng.Finish()
	p.Stats.Iterations = eng.Iterations() - 1
	return p, nil
}

func ceilHalf(x int) int {
	if x <= 0 {
		return 0
	}
	return (x + 1) / 2
}

// IntegralPack produces edge-disjoint spanning trees of count
// Ω(λ/log n): partition the edges into η = max(1, λ/(c·log n)) random
// groups and keep one spanning tree from each connected group (the
// "considerably simpler variant" noted under Theorem 1.3).
func IntegralPack(g *graph.Graph, opts Options) ([]*graph.Tree, error) {
	n := g.N()
	if n < 2 || !graph.IsConnected(g) {
		return nil, fmt.Errorf("stp: need a connected graph with n >= 2")
	}
	opts = opts.normalize()
	lambda := opts.KnownLambda
	if lambda <= 0 {
		lambda = flow.EdgeConnectivity(g)
	}
	logn := math.Log2(float64(n) + 2)
	eta := int(float64(lambda) / (3 * logn))
	if eta < 1 {
		eta = 1
	}
	rng := ds.NewRand(opts.Seed ^ 0x1f7e)
	assign := make([]int, g.M())
	for e := range assign {
		assign[e] = rng.IntN(eta)
	}
	var out []*graph.Tree
	for i := 0; i < eta; i++ {
		sub := g.SubgraphByEdges(func(id int) bool { return assign[id] == i })
		if !graph.IsConnected(sub) {
			continue
		}
		tree := graph.TreeFromBFS(sub, 0)
		// Rebuild over g's vertex ids (identical since sub is spanning).
		out = append(out, tree)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("stp: no connected sampled subgraph (λ=%d too small for η=%d)", lambda, eta)
	}
	return out, nil
}
