// Package check turns the paper's theorems into executable oracles:
// reusable invariant checkers for fractional dominating-tree packings
// (Theorems 1.1/1.2), fractional spanning-tree packings (Theorem 1.3),
// and class partitions (the Lemma E.1 predicate). Packer tests, the
// property-sweep harness, and internal/tester all assert through this
// package, so a refactor of a packer is gated by the paper's guarantees
// and not only by byte-identity of outputs.
//
// The package depends only on internal/graph, so the packers can
// validate through it: a packing is the []graph.WeightedTree the
// packers build, checked as is.
//
// # Caller invariants
//
// Checkers read, never write: graphs and trees pass through untouched,
// so they are safe on live data structures (internal/serve runs them
// on snapshots loaded from disk before serving). Every tree must have
// been built for the graph being checked — vertex ids are interpreted
// against g — and a size floor of 0 (kappa/lambda unknown) skips the
// packing-size check while still enforcing domination/spanning and the
// per-vertex or per-edge capacity.
package check

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Weighted is graph.WeightedTree under its former name.
//
// Deprecated: it remains only for the benchmark runner (perfbench),
// which still names it, and goes once that stops naming it.
type Weighted = graph.WeightedTree

// eps absorbs float accumulation error in load and size comparisons.
const eps = 1e-9

// DominatingFloor is the Theorem 1.1/1.2 packing-size lower bound
// κ/(8·log2(n+2)): the paper guarantees Ω(κ/log n) w.h.p., and the
// constant 8 is the lenient factor the repository's tests calibrate
// against (a correct packer clears it on every tested family).
func DominatingFloor(kappa, n int) float64 {
	return float64(kappa) / (8 * log2(n))
}

// SpanningFloor is the Theorem 1.3 packing-size lower bound
// ⌊(λ-1)/2⌋·(1-6ε): the MWU packer stops once Lemma F.1 bounds the
// pre-rescaling load by 1+6ε, so the rescaled size keeps that fraction
// of the ⌈(λ-1)/2⌉ optimum (the floor form is the conservative bound).
func SpanningFloor(lambda int, epsilon float64) float64 {
	f := float64((lambda-1)/2) * (1 - 6*epsilon)
	if f < 0 {
		return 0
	}
	return f
}

// DominatingPacking verifies the Theorem 1.1/1.2 invariants: every tree
// is a connected dominating tree of g (edges present, domination holds)
// with weight in (0,1], the fractional load through every vertex is at
// most 1, and the packing size reaches DominatingFloor(kappa, n). Pass
// kappa = 0 to skip the size bound (unknown connectivity).
func DominatingPacking(g *graph.Graph, trees []graph.WeightedTree, kappa int) error {
	if len(trees) == 0 {
		return fmt.Errorf("check: empty packing")
	}
	n := g.N()
	load := make([]float64, n)
	size := 0.0
	for i, t := range trees {
		if t.Weight <= 0 || t.Weight > 1+eps {
			return fmt.Errorf("check: tree %d weight %g outside (0,1]", i, t.Weight)
		}
		if err := t.Tree.ValidateIn(g); err != nil {
			return fmt.Errorf("check: tree %d: %w", i, err)
		}
		if !t.Tree.IsDominatingIn(g) {
			return fmt.Errorf("check: tree %d does not dominate g", i)
		}
		for _, v := range t.Tree.Vertices() {
			load[v] += t.Weight
		}
		size += t.Weight
	}
	for v, l := range load {
		if l > 1+eps {
			return fmt.Errorf("check: vertex %d carries fractional load %g > 1", v, l)
		}
	}
	if floor := DominatingFloor(kappa, n); kappa > 0 && size+eps < floor {
		return fmt.Errorf("check: packing size %.4f below Theorem 1.1 floor %.4f (kappa=%d, n=%d)", size, floor, kappa, n)
	}
	return nil
}

// SpanningPacking verifies the Theorem 1.3 invariants: every tree spans
// g with all edges present and positive weight, the fractional load
// through every edge is at most capacity (the paper packs against unit
// capacities; its ⌊(λ-1)/2⌋-size decompositions never need more than 2),
// and the packing size reaches minSize (use SpanningFloor, or 0 to skip).
func SpanningPacking(g *graph.Graph, trees []graph.WeightedTree, capacity, minSize float64) error {
	if len(trees) == 0 {
		return fmt.Errorf("check: empty packing")
	}
	load := make([]float64, g.M())
	size := 0.0
	for i, t := range trees {
		if t.Weight <= 0 {
			return fmt.Errorf("check: tree %d weight %g not positive", i, t.Weight)
		}
		if !t.Tree.IsSpanning(g) {
			return fmt.Errorf("check: tree %d spans %d of %d vertices", i, t.Tree.Size(), g.N())
		}
		if err := addEdgeLoad(g, t, load); err != nil {
			return fmt.Errorf("check: tree %d: %w", i, err)
		}
		size += t.Weight
	}
	if l, e := maxLoad(load); l > capacity+eps {
		u, v := g.Endpoints(e)
		return fmt.Errorf("check: edge (%d,%d) carries fractional load %g > capacity %g", u, v, l, capacity)
	}
	if size+eps < minSize {
		return fmt.Errorf("check: packing size %.4f below floor %.4f", size, minSize)
	}
	return nil
}

// EdgeCongestion returns the maximum fractional load over edges of g,
// max_e Σ_{τ∋e} w_τ, and the edge id attaining it.
func EdgeCongestion(g *graph.Graph, trees []graph.WeightedTree) (float64, int) {
	load := make([]float64, g.M())
	for _, t := range trees {
		// A tree edge g lacks carries no load; only SpanningPacking
		// rejects it.
		_ = addEdgeLoad(g, t, load)
	}
	return maxLoad(load)
}

// addEdgeLoad adds t's weight to the load of every edge of t that g
// has, one edge lookup each, and returns t.ValidateIn(g)'s verdict.
func addEdgeLoad(g *graph.Graph, t graph.WeightedTree, load []float64) error {
	return t.Tree.ForEachEdgeID(g, func(id int) { load[id] += t.Weight })
}

// maxLoad returns the largest load and the first edge id carrying it
// (0, 0 when no edge is loaded).
func maxLoad(load []float64) (float64, int) {
	top, edge := 0.0, 0
	for id, l := range load {
		if l > top {
			top, edge = l, id
		}
	}
	return top, edge
}

// VertexLoad returns the maximum fractional load over vertices,
// max_v Σ_{τ∋v} w_τ.
func VertexLoad(n int, trees []graph.WeightedTree) float64 {
	load := make([]float64, n)
	for _, t := range trees {
		for _, v := range t.Tree.Vertices() {
			load[v] += t.Weight
		}
	}
	maxLoad := 0.0
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return maxLoad
}

// Partition is the Lemma E.1 predicate on a class partition: every class
// must dominate g and induce a connected subgraph. classOf[v] lists the
// classes vertex v belongs to (a vertex may be in several). It returns
// the number of (vertex, class) domination violations and the number of
// classes that are empty or disconnected; (0, 0) means the partition is
// a valid CDS partition. internal/tester's centralized test and the
// packer property sweeps share this implementation.
func Partition(g *graph.Graph, classOf [][]int32, classes int) (domFailures, connFailures int) {
	n := g.N()

	// Domination: every vertex must see every class in its closed
	// neighborhood.
	covered := make([]bool, classes)
	for v := 0; v < n; v++ {
		for i := range covered {
			covered[i] = false
		}
		seen := 0
		mark := func(cs []int32) {
			for _, c := range cs {
				if c >= 0 && int(c) < classes && !covered[c] {
					covered[c] = true
					seen++
				}
			}
		}
		mark(classOf[v])
		for _, w := range g.Neighbors(v) {
			mark(classOf[w])
		}
		if seen < classes {
			domFailures += classes - seen
		}
	}

	// Connectivity: per class, BFS over members only.
	members := make([][]int, classes)
	for v := 0; v < n; v++ {
		for _, c := range classOf[v] {
			if c >= 0 && int(c) < classes {
				members[c] = append(members[c], v)
			}
		}
	}
	inClass := make([]bool, n)
	for c := 0; c < classes; c++ {
		if len(members[c]) == 0 {
			connFailures++
			continue
		}
		for _, v := range members[c] {
			inClass[v] = true
		}
		dist := graph.BFSRestricted(g, members[c][0], func(v int) bool { return inClass[v] })
		for _, v := range members[c] {
			if dist[v] < 0 {
				connFailures++
				break
			}
		}
		for _, v := range members[c] {
			inClass[v] = false
		}
	}
	return domFailures, connFailures
}

// ClassesOf projects a packing's trees to the per-vertex class lists
// Partition consumes: classOf[v] lists the indices of the trees whose
// vertex sets contain v, in tree order.
func ClassesOf(n int, trees []graph.WeightedTree) [][]int32 {
	classOf := make([][]int32, n)
	ClassesInto(classOf, trees)
	return classOf
}

// ClassesInto is ClassesOf writing into classOf, one row per vertex,
// whose rows it truncates and refills in place, so a caller that
// projects packing after packing reuses their storage.
func ClassesInto(classOf [][]int32, trees []graph.WeightedTree) {
	for v := range classOf {
		classOf[v] = classOf[v][:0]
	}
	for i, t := range trees {
		for _, v := range t.Tree.Vertices() {
			classOf[v] = append(classOf[v], int32(i))
		}
	}
}

func log2(n int) float64 {
	// The +2 keeps the bound finite on degenerate sizes, matching
	// cds.LayersFor and the existing test constants.
	return math.Log2(float64(n) + 2)
}
