// Package cds implements the paper's core contribution: fractional
// dominating-tree (connected-dominating-set) packings of size
// Ω(k/log n) for graphs with vertex connectivity k (Theorems 1.1/1.2).
//
// The centralized implementation follows Section 3 and Appendix C: a
// virtual graph with L = Θ(log n) layers of three typed copies per real
// node, a random jump-start on the first L/2 layers, and a recursive
// class assignment in which type-2 virtual nodes are matched to
// connected components through the bridging graph. Components are
// maintained with a union-find over one representative virtual node per
// (real node, class) pair, and each layer reads component roots from a
// table refreshed once at its start, giving the paper's O(m log^2 n)
// step bound up to the union-find inverse-Ackermann factor. Each real
// node's classes are a bitmask row with its representatives in class
// order, so a lookup is a bit test plus a popcount rank, and the
// matching scans only the classes set in both a node's row and the row
// of classes with a suitable component. Pack runs all of Remark 3.1's
// guesses in one arena, sized at the first and largest guess.
package cds

import (
	"math"

	"repro/internal/check"
	"repro/internal/graph"
)

// Packing is a fractional dominating tree packing (Section 2): trees
// with weights such that the total weight through every vertex is at
// most 1. Size() is the packing size Σ x_tau, the quantity Theorem 1.1
// lower-bounds by Ω(k/log n).
type Packing struct {
	// Trees are the dominating trees with their fractional weights
	// x_tau in (0,1].
	Trees []graph.WeightedTree
	// TreeClass[i] is the index of the class Trees[i] was built from.
	TreeClass []int
	// Classes holds, for every class (valid or not), the set of real
	// vertices that joined it; experiment code uses it for diagnostics
	// and figure generation.
	Classes [][]int32
	// Stats records convergence diagnostics of the run that built this
	// packing.
	Stats Stats
}

// Size returns the packing size Σ x_tau.
func (p *Packing) Size() float64 {
	s := 0.0
	for _, t := range p.Trees {
		s += t.Weight
	}
	return s
}

// MaxTreeCount returns the maximum over vertices of the number of trees
// containing that vertex (the paper's "each node is included in
// O(log n) trees").
func (p *Packing) MaxTreeCount(n int) int {
	count := make([]int, n)
	for _, t := range p.Trees {
		for _, v := range t.Tree.Vertices() {
			count[v]++
		}
	}
	max := 0
	for _, c := range count {
		if c > max {
			max = c
		}
	}
	return max
}

// MaxTreeHeight returns the maximum tree height in the packing, which
// bounds tree diameters within a factor 2 (Theorem 1.1's O~(n/k) claim).
func (p *Packing) MaxTreeHeight() int {
	max := 0
	for _, t := range p.Trees {
		if h := t.Tree.Height(); h > max {
			max = h
		}
	}
	return max
}

// Validate checks the packing against the host graph with
// check.DominatingPacking: every tree must be a genuine dominating tree
// of g, weights must lie in (0,1], and the per-vertex fractional load
// must not exceed 1 (+eps). Like the oracle it rejects an empty
// packing, which Pack never returns.
func (p *Packing) Validate(g *graph.Graph) error {
	return check.DominatingPacking(g, p.Trees, 0)
}

// Stats captures the run diagnostics the experiments report.
type Stats struct {
	// Guess is the connectivity guess k-hat the packing was built with.
	Guess int
	// Layers is L, the number of virtual layers used.
	Layers int
	// Classes is t, the number of classes attempted.
	Classes int
	// ValidClasses counts classes that ended up connected and dominating.
	ValidClasses int
	// ExcessComponents traces M_ell (total excess component count) after
	// each layer from L/2 to L; the Fast Merger Lemma predicts geometric
	// decay.
	ExcessComponents []int
	// MatchedPerLayer counts bridging-graph matches made at each layer.
	MatchedPerLayer []int
	// Matched and Unmatched total the type-2 nodes across all recursive
	// layers that were matched through the bridging graph vs. fell back
	// to a random class (observability roll-up of MatchedPerLayer).
	Matched   int
	Unmatched int
	// MaxLoad is the maximum number of valid trees through any real
	// vertex, as FinalizeWeights returns it (per-node load before
	// fractional weighting). Invalid classes do not count, so it can be
	// below the number of classes a vertex joined.
	MaxLoad int
}

// Options configures the packing algorithms, centralized (this
// package) and distributed (internal/cdsdist). The zero value is usable;
// Normalize fills defaults.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// ClassFactor sets t = max(1, floor(ClassFactor * k-hat)); the paper
	// uses t = Θ(k) with a small constant. Default 0.5.
	ClassFactor float64
	// JumpStartFraction is the fraction of layers assigned randomly
	// up-front (paper: 1/2). Exposed for the A2 ablation. Default 0.5.
	JumpStartFraction float64
}

// Normalize returns o with every unset or out-of-range factor replaced
// by its default.
func (o Options) Normalize() Options {
	if o.ClassFactor <= 0 {
		o.ClassFactor = 0.5
	}
	if o.JumpStartFraction <= 0 || o.JumpStartFraction >= 1 {
		o.JumpStartFraction = 0.5
	}
	return o
}

// LayersFor returns L, the number of virtual layers for an n-vertex
// graph: 2*ceil(log2(n+2)), at least 4; the paper uses L = Θ(log n).
func LayersFor(n int) int {
	l := int(math.Ceil(math.Log2(float64(n) + 2)))
	if l < 2 {
		l = 2
	}
	return 2 * l // even, so L/2 is an integer layer count
}
