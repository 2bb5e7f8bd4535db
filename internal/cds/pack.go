package cds

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/ds"
	"repro/internal/graph"
)

// PackWithGuess runs the CDS-packing construction of Section 3.1 with a
// fixed connectivity guess kGuess (the paper's 2-approximation
// assumption; Pack removes it). It always returns a Packing — possibly
// with fewer valid trees than classes — so callers can test the outcome
// as the paper's try-and-error loop does.
func PackWithGuess(g *graph.Graph, kGuess int, opts Options) (*Packing, error) {
	return packWithGuess(g, kGuess, opts, nil)
}

// packWithGuess is PackWithGuess. A non-nil afterLayer is called with
// the virtual graph after the jump start and after every recursive
// layer, where the white-box tests check the component invariants.
func packWithGuess(g *graph.Graph, kGuess int, opts Options, afterLayer func(*virtualGraph)) (*Packing, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("cds: empty graph")
	}
	if kGuess < 1 {
		return nil, fmt.Errorf("cds: connectivity guess %d < 1", kGuess)
	}
	opts = opts.Normalize()
	layers := LayersFor(n)
	classes := int(opts.ClassFactor * float64(kGuess))
	if classes < 1 {
		classes = 1
	}
	rng := ds.NewRand(opts.Seed ^ (uint64(kGuess) * 0x9e3779b97f4a7c15))
	vg := newVirtualGraph(g, layers, classes)
	scratch := newPackScratch(vg)
	stats := Stats{Guess: kGuess, Layers: layers, Classes: classes}

	// Jump start: layers [0, half) of every type join random classes
	// (Section 3.1's first step, giving domination w.h.p.).
	half := int(opts.JumpStartFraction * float64(layers))
	if half < 1 {
		half = 1
	}
	if half > layers-1 {
		half = layers - 1
	}
	for layer := 0; layer < half; layer++ {
		for v := 0; v < n; v++ {
			for typ := 0; typ < numTypes; typ++ {
				vg.assign(v, layer, typ, int32(rng.IntN(classes)))
			}
		}
	}
	stats.ExcessComponents = append(stats.ExcessComponents, vg.excess())
	if afterLayer != nil {
		afterLayer(vg)
	}

	// Recursive class assignment, one layer at a time.
	for layer := half; layer < layers; layer++ {
		matchedCount := assignLayer(g, vg, scratch, rng, layer, classes)
		stats.MatchedPerLayer = append(stats.MatchedPerLayer, matchedCount)
		stats.Matched += matchedCount
		stats.Unmatched += n - matchedCount
		stats.ExcessComponents = append(stats.ExcessComponents, vg.excess())
		if afterLayer != nil {
			afterLayer(vg)
		}
	}

	return buildPacking(g, vg, stats), nil
}

// packScratch is the epoch-stamped scratch arena shared by every layer
// of one PackWithGuess run. The per-layer component sets (deactivated,
// matched) and the per-findMatch potential-matches array are "cleared"
// by bumping a generation counter instead of reallocating maps, so the
// matching loop performs no per-call allocation and no hashing.
type packScratch struct {
	layerGen int32   // current layer generation
	deactGen []int32 // per component root: deactivated iff == layerGen
	matchGen []int32 // per component root: matched iff == layerGen

	pmGen  int32     // current findMatch generation
	pmSeen []int32   // per class: pm[class] valid iff == pmGen
	pm     [][]int32 // per class: suitable component roots (App. C array)

	adjacent []int32   // deactivation's component roots, reused across layers
	suitable [][]int32 // per vertex: reused across layers
	order    []int     // matching order permutation, reused across layers
}

func newPackScratch(vg *virtualGraph) *packScratch {
	// Generation 0 is never current: layerGen and pmGen are incremented
	// before first use, so the zeroed stamps mean "not in set".
	return &packScratch{
		deactGen: make([]int32, vg.numVirtual()),
		matchGen: make([]int32, vg.numVirtual()),
		pmSeen:   make([]int32, vg.classes),
		pm:       make([][]int32, vg.classes),
		suitable: make([][]int32, vg.n),
		order:    make([]int, vg.n),
	}
}

// assignLayer performs the paper's recursive class assignment for one
// new layer: random classes for types 1 and 3, then the bridging-graph
// maximal matching for type 2 (Appendix C data-structure version).
// It returns the number of type-2 nodes matched through the bridging
// graph.
func assignLayer(g *graph.Graph, vg *virtualGraph, s *packScratch, rng *rand.Rand, layer, classes int) int {
	n := g.N()
	s.layerGen++
	vg.refreshRoots()

	// Types 1 and 3 join random classes (recorded, merged later).
	for v := 0; v < n; v++ {
		vg.setClass(v, layer, typeOne, int32(rng.IntN(classes)))
		vg.setClass(v, layer, typeThree, int32(rng.IntN(classes)))
	}

	// Deactivation: a component already bridged by a type-1 new node of
	// its own class needs no type-2 match this layer (Appendix B.2).
	for v := 0; v < n; v++ {
		class := vg.class(v, layer, typeOne)
		s.adjacent = vg.adjacentComponents(v, class, s.adjacent[:0])
		if len(s.adjacent) >= 2 {
			for _, root := range s.adjacent {
				s.deactGen[root] = s.layerGen
			}
		}
	}

	// Suitability: for each type-3 new node, the components of its own
	// class it is adjacent to (rule (c) of the bridging graph).
	for v := 0; v < n; v++ {
		class := vg.class(v, layer, typeThree)
		s.suitable[v] = vg.adjacentComponents(v, class, s.suitable[v][:0])
	}

	// Maximal matching over the bridging graph, greedily over type-2 new
	// nodes in random order (Appendix C walks an arbitrary linked list;
	// a random order is one such list and symmetrizes the analysis).
	ds.Perm(rng, s.order)
	matchedCount := 0
	for _, v := range s.order {
		class, comp := findMatch(g, vg, s, v, layer)
		if class >= 0 {
			vg.setClass(v, layer, typeTwo, class)
			s.matchGen[comp] = s.layerGen
			matchedCount++
		} else {
			vg.setClass(v, layer, typeTwo, int32(rng.IntN(classes)))
		}
	}

	// Merge the completed layer into the component structure.
	for v := 0; v < n; v++ {
		for typ := 0; typ < numTypes; typ++ {
			vg.merge(v, layer, typ)
		}
	}
	return matchedCount
}

// findMatch looks for a bridging-graph neighbor of type-2 node (v,
// layer): an active unmatched component C of some class i such that v
// has a virtual neighbor in C and a type-3 new neighbor of class i that
// is adjacent to a component of class i other than C. It returns the
// matched class and component root, or (-1, -1). Candidate classes are
// scanned in ascending class order (the sorted representative lists),
// so the greedy choice is deterministic by construction.
func findMatch(g *graph.Graph, vg *virtualGraph, s *packScratch, v, layer int) (int32, int32) {
	// s.pm[class] = set of component roots reachable via type-3 new
	// neighbors of that class (the potential-matches array of App. C),
	// valid for this call iff s.pmSeen[class] == s.pmGen.
	s.pmGen++
	addSuit := func(u int) {
		class := vg.class(u, layer, typeThree)
		roots := s.suitable[u]
		if len(roots) == 0 {
			return
		}
		if s.pmSeen[class] != s.pmGen {
			s.pmSeen[class] = s.pmGen
			s.pm[class] = s.pm[class][:0]
		}
	outer:
		for _, root := range roots {
			for _, have := range s.pm[class] {
				if have == root {
					continue outer
				}
			}
			s.pm[class] = append(s.pm[class], root)
		}
	}
	addSuit(v)
	for _, w := range g.Neighbors(v) {
		addSuit(int(w))
	}

	// Scan candidate components adjacent to v, class by class. A class
	// with no suitable component fails rule (c) whatever the root, so
	// its stamp is tested first; a set, once stamped, is never empty.
	tryClass := func(u int) (int32, int32) {
		vids := vg.repVid[u]
		for i, class := range vg.repCls[u] {
			if s.pmSeen[class] != s.pmGen {
				continue
			}
			root := vg.root[vids[i]]
			if s.matchGen[root] == s.layerGen || s.deactGen[root] == s.layerGen {
				continue
			}
			// Bridging rule (c): some suitable component differs from root.
			if set := s.pm[class]; len(set) > 1 || set[0] != root {
				return class, root
			}
		}
		return -1, -1
	}
	if class, root := tryClass(v); class >= 0 {
		return class, root
	}
	for _, w := range g.Neighbors(v) {
		if class, root := tryClass(int(w)); class >= 0 {
			return class, root
		}
	}
	return -1, -1
}

// buildPacking converts the class assignment into dominating trees: the
// CDS-to-tree step of Section 3.1 (a 0/1-weight MST, which reduces to a
// per-class spanning tree of the induced subgraph), then fractional
// weights from FinalizeWeights so that per-vertex load is at most 1.
func buildPacking(g *graph.Graph, vg *virtualGraph, stats Stats) *Packing {
	classes := vg.realClasses()
	inSet := ds.NewBitset(g.N())
	var (
		trees     []graph.WeightedTree
		treeClass []int
	)
	for class, members := range classes {
		// comps counts the components of the class's induced subgraph:
		// 0 is an empty class and more than 1 a disconnected one, both
		// invalid, so only a count of 1 needs a tree.
		if vg.comps[class] != 1 {
			continue
		}
		inSet.Reset()
		for _, v := range members {
			inSet.Set(int(v))
		}
		tree, err := graph.SpanningTreeOfSubset(g, inSet.Has)
		if err != nil {
			continue // not reached while comps is exact
		}
		if !tree.IsDominatingIn(g) {
			continue
		}
		trees = append(trees, graph.WeightedTree{Tree: tree, Weight: 1})
		treeClass = append(treeClass, class)
	}
	stats.ValidClasses = len(trees)
	stats.MaxLoad = FinalizeWeights(trees, g.N())
	return &Packing{Trees: trees, TreeClass: treeClass, Classes: classes, Stats: stats}
}

// FinalizeWeights assigns fractional weights to the valid trees: first the
// safe per-tree weight 1/max_{v in tau} count(v) (which keeps every
// vertex load at most 1, since each of the count(v) trees through v
// contributes at most 1/count(v)), then greedy augmentation passes that
// raise each tree's weight by the minimum residual slack along it.
// It returns the maximum per-vertex tree count. The distributed packer
// (internal/cdsdist) reuses it on the trees it extracts.
func FinalizeWeights(trees []graph.WeightedTree, n int) int {
	count := make([]int, n)
	for _, t := range trees {
		for _, v := range t.Tree.Vertices() {
			count[v]++
		}
	}
	maxCount := 0
	for _, c := range count {
		if c > maxCount {
			maxCount = c
		}
	}
	load := make([]float64, n)
	for i := range trees {
		mc := 1
		for _, v := range trees[i].Tree.Vertices() {
			if count[v] > mc {
				mc = count[v]
			}
		}
		trees[i].Weight = 1 / float64(mc)
		for _, v := range trees[i].Tree.Vertices() {
			load[v] += trees[i].Weight
		}
	}
	const augmentPasses = 3
	for pass := 0; pass < augmentPasses; pass++ {
		for i := range trees {
			slack := 1 - trees[i].Weight
			for _, v := range trees[i].Tree.Vertices() {
				if s := 1 - load[v]; s < slack {
					slack = s
				}
			}
			if slack <= 1e-12 {
				continue
			}
			trees[i].Weight += slack
			for _, v := range trees[i].Tree.Vertices() {
				load[v] += slack
			}
		}
	}
	return maxCount
}

// Pack removes the known-connectivity assumption with the paper's
// try-and-error loop (Remark 3.1): it tries exponentially decreasing
// guesses k-hat = n/2^j, tests each outcome (domination and
// connectivity of every class), and returns the passing packing of
// maximum size. Around the correct guess the size is Ω(k/log n) w.h.p.
// while no valid fractional dominating-tree packing can exceed k, so
// the best passing size is the Corollary 1.7 estimate. For a connected
// graph the loop always terminates with at least the single-class
// packing (the whole vertex set).
func Pack(g *graph.Graph, opts Options) (*Packing, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("cds: empty graph")
	}
	opts = opts.Normalize()
	var best *Packing
	for guess := n; guess >= 1; guess /= 2 {
		p, err := PackWithGuess(g, guess, opts)
		if err != nil {
			return nil, err
		}
		if p.Stats.ValidClasses == p.Stats.Classes && (best == nil || p.Size() > best.Size()) {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cds: no guess produced a valid packing (graph disconnected?)")
	}
	return best, nil
}

// ApproxVertexConnectivity returns the packing-size estimate of the
// vertex connectivity (Corollary 1.7): the returned value is always at
// most k (any vertex cut meets every dominating tree) and, w.h.p., at
// least Ω(k/log n), so k is approximated within an O(log n) factor.
func ApproxVertexConnectivity(g *graph.Graph, opts Options) (float64, *Packing, error) {
	p, err := Pack(g, opts)
	if err != nil {
		return 0, nil, err
	}
	return p.Size(), p, nil
}

// ExtractDisjoint greedily derives an integral, vertex-disjoint
// dominating-tree packing from a fractional one: classes are scanned in
// packing order, and a class is kept if its members minus all
// previously used vertices still induce a connected dominating set.
// This replaces the random-layering adaptation of [12, Theorem 1.2]
// (docs/ARCHITECTURE.md "Substitutions", item 3); the returned trees are
// guaranteed vertex-disjoint dominating trees.
func ExtractDisjoint(g *graph.Graph, p *Packing) []*graph.Tree {
	used := ds.NewBitset(g.N())
	member := ds.NewBitset(g.N())
	var out []*graph.Tree
	for _, t := range p.Trees {
		member.Reset()
		for _, u := range t.Tree.Vertices() {
			member.Set(int(u))
		}
		free := func(v int) bool { return member.Has(v) && !used.Has(v) }
		tree, err := graph.SpanningTreeOfSubset(g, free)
		if err != nil {
			continue
		}
		if !tree.IsDominatingIn(g) {
			continue
		}
		out = append(out, tree)
		for _, v := range tree.Vertices() {
			used.Set(int(v))
		}
	}
	return out
}
