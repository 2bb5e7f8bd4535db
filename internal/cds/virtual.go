package cds

import (
	"math/bits"

	"repro/internal/ds"
	"repro/internal/graph"
)

// Virtual node types, following the paper's numbering (Section 3.1).
const (
	typeOne   = 0 // paper type-1: directly bridges two components
	typeTwo   = 1 // paper type-2: assigned via the bridging-graph matching
	typeThree = 2 // paper type-3: scouts components for type-2 neighbors
	numTypes  = 3
)

// virtualGraph is the bookkeeping for the virtual graph G~: each real
// node simulates 3L virtual nodes (one per layer and type); two virtual
// nodes are adjacent iff their real nodes are equal or adjacent in G.
// Connected components of each class are tracked by a union-find whose
// only members are representatives: the first virtual node of each
// (real node, class) pair to merge. A later virtual node of the same
// pair is adjacent to its representative, so it joins that component
// and changes nothing; a new representative costs O(deg) finds, one
// union with each real neighbor's representative of its class. So the
// representatives of one class at adjacent real nodes always share a
// root, and comps[class] is the number of connected components of the
// subgraph of G induced by the class's real members.
//
// Representatives are stored per real node v as a class row, words
// 64-bit words in which bit c is set iff v has a representative of
// class c (repMask[v*words:(v+1)*words]), plus repVid[v], the
// representative vids in ascending class order. A class's index in
// repVid[v] is its rank in the row: the number of set bits below c. So
// a lookup is a bit test and a popcount, an insert a bit set and a
// short shift, and every iteration over a vertex's classes walks set
// bits in ascending class order — deterministic by construction.
//
// Every array is sized by n, by n·L·3 (which depends on n alone) or by
// the class count, so reset readies one virtual graph for each guess of
// Pack's loop in turn.
type virtualGraph struct {
	g       *graph.Graph
	n       int
	layers  int
	classes int
	words   int     // ⌈classes/64⌉, the width of a class row
	classOf []int32 // per vid; -1 unassigned
	uf      *ds.UnionFind
	repMask []uint64  // n class rows of words words each
	repVid  [][]int32 // repVid[v] = v's representative vids, ascending by class
	root    []int32   // per representative vid: its root as of refreshRoots
	comps   []int32   // comps[class] = live component count
}

// newVirtualGraph returns the virtual graph of g with L = layers, reset
// for a run with the given class count.
func newVirtualGraph(g *graph.Graph, layers, classes int) *virtualGraph {
	n := g.N()
	vg := &virtualGraph{
		g:       g,
		n:       n,
		layers:  layers,
		classOf: make([]int32, n*layers*numTypes),
		uf:      ds.NewUnionFind(n * layers * numTypes),
		repVid:  make([][]int32, n),
		root:    make([]int32, n*layers*numTypes),
	}
	vg.reset(classes)
	return vg
}

// reset empties the virtual graph for a run with the given class count:
// no virtual node is assigned, every union-find set is a singleton and
// no real node holds a representative. The storage is reused; the class
// rows and counts grow only past the largest class count seen. root is
// left as it is: refreshRoots writes it for every representative before
// it is read.
func (vg *virtualGraph) reset(classes int) {
	vg.classes = classes
	vg.words = (classes + 63) / 64
	for i := range vg.classOf {
		vg.classOf[i] = -1
	}
	vg.uf.Reset()
	vg.repMask = ds.GrowClear(vg.repMask, vg.n*vg.words)
	for v := range vg.repVid {
		vg.repVid[v] = vg.repVid[v][:0]
	}
	vg.comps = ds.GrowClear(vg.comps, classes)
}

// vid maps (real node, layer, type) to a virtual node id.
func (vg *virtualGraph) vid(v, layer, typ int) int32 {
	return int32((v*vg.layers+layer)*numTypes + typ)
}

// numVirtual returns the size of the virtual node id space, which sizes
// the epoch-stamped scratch arrays keyed by component root.
func (vg *virtualGraph) numVirtual() int {
	return vg.n * vg.layers * numTypes
}

// class returns the class of virtual node (v,layer,typ), or -1.
func (vg *virtualGraph) class(v, layer, typ int) int32 {
	return vg.classOf[vg.vid(v, layer, typ)]
}

// setClass records a class assignment without merging, used while a
// layer's matching still needs the previous layers' component structure.
func (vg *virtualGraph) setClass(v, layer, typ int, class int32) {
	vg.classOf[vg.vid(v, layer, typ)] = class
}

// row returns real node v's class row.
func (vg *virtualGraph) row(v int) []uint64 {
	return vg.repMask[v*vg.words : (v+1)*vg.words]
}

// rep returns the representative vid of class at real node v, or -1 when
// no virtual node of v has joined the class yet.
func (vg *virtualGraph) rep(v int, class int32) int32 {
	row := vg.row(v)
	if row[class>>6]&(1<<(class&63)) == 0 {
		return -1
	}
	return vg.repVid[v][ds.Rank(row, class)]
}

// addRep records id as the representative of class at real node v,
// keeping repVid[v] in ascending class order. It reports false,
// recording nothing, when v already has a representative of class.
func (vg *virtualGraph) addRep(v int, class, id int32) bool {
	row := vg.row(v)
	bit := uint64(1) << (class & 63)
	if row[class>>6]&bit != 0 {
		return false
	}
	row[class>>6] |= bit
	i := ds.Rank(row, class)
	vids := append(vg.repVid[v], 0)
	copy(vids[i+1:], vids[i:])
	vids[i] = id
	vg.repVid[v] = vids
	return true
}

// merge folds an assigned virtual node into its class's component
// structure. Only the first virtual node of its real node in the class
// does anything: it becomes the representative, a new component, and is
// unioned with the class representatives at every real neighbor.
func (vg *virtualGraph) merge(v, layer, typ int) {
	id := vg.vid(v, layer, typ)
	class := vg.classOf[id]
	if class < 0 || !vg.addRep(v, class, id) {
		return
	}
	vg.comps[class]++
	for _, w := range vg.g.Neighbors(v) {
		if r := vg.rep(int(w), class); r >= 0 && vg.uf.Union(int(id), int(r)) {
			vg.comps[class]--
		}
	}
}

// assign is setClass followed by merge, used during the jump start.
func (vg *virtualGraph) assign(v, layer, typ int, class int32) {
	vg.setClass(v, layer, typ, class)
	vg.merge(v, layer, typ)
}

// refreshRoots records every representative's component root in root.
// A layer merges nothing until its final loop, so a refresh at the start
// of the layer stays exact through deactivation, suitability and
// matching, which then read roots without a single find.
func (vg *virtualGraph) refreshRoots() {
	for _, vids := range vg.repVid {
		for _, id := range vids {
			vg.root[id] = int32(vg.uf.Find(int(id)))
		}
	}
}

// adjacentComponents appends to dst the distinct component roots of the
// given class adjacent (in the virtual graph) to real node v: the class
// components containing a virtual node of v itself or of a real
// neighbor of v. It reads the roots recorded by refreshRoots.
func (vg *virtualGraph) adjacentComponents(v int, class int32, dst []int32) []int32 {
	add := func(u int) {
		r := vg.rep(u, class)
		if r < 0 {
			return
		}
		root := vg.root[r]
		for _, have := range dst {
			if have == root {
				return
			}
		}
		dst = append(dst, root)
	}
	add(v)
	for _, w := range vg.g.Neighbors(v) {
		add(int(w))
	}
	return dst
}

// excess returns M = Σ_i max(0, N_i - 1), the paper's count of excess
// components over all classes.
func (vg *virtualGraph) excess() int {
	m := 0
	for _, c := range vg.comps {
		if c > 1 {
			m += int(c) - 1
		}
	}
	return m
}

// realClasses projects classes onto real nodes: class i contains real
// node v iff some virtual node of v joined class i (the class rows
// record exactly the classes each real node participates in). Members
// are appended in ascending v, so every class list comes out sorted.
func (vg *virtualGraph) realClasses() [][]int32 {
	out := make([][]int32, vg.classes)
	for v := 0; v < vg.n; v++ {
		for w, word := range vg.row(v) {
			for ; word != 0; word &= word - 1 {
				class := w<<6 | bits.TrailingZeros64(word)
				out[class] = append(out[class], int32(v))
			}
		}
	}
	return out
}
