// Package ds provides the small data structures shared by the
// connectivity-decomposition substrates: union-find, bitsets, a
// lexicographic indexed heap, the load-order maintenance helper behind
// the spanning-tree MWU engine, and deterministic random-number streams.
package ds

// UnionFind is a disjoint-set forest with union by rank and path halving.
// It tracks the number of disjoint sets and the size of each set. The
// dominating-tree packer counts each class's components (the M_ell
// quantity of the paper's Section 3.1) from Union's result.
type UnionFind struct {
	parent []int32
	rank   []int8
	size   []int32
	sets   int
}

// NewUnionFind returns a union-find over elements 0..n-1, each in its own
// singleton set.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		size:   make([]int32, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// Len returns the number of elements.
func (u *UnionFind) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	p := int32(x)
	for u.parent[p] != p {
		u.parent[p] = u.parent[u.parent[p]] // path halving
		p = u.parent[p]
	}
	return int(p)
}

// Union merges the sets containing x and y. It reports whether a merge
// happened (false when x and y were already in the same set).
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	u.size[rx] += u.size[ry]
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (u *UnionFind) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// SizeOf returns the size of the set containing x.
func (u *UnionFind) SizeOf(x int) int { return int(u.size[u.Find(x)]) }

// Reset returns every element to its own singleton set, reusing storage.
func (u *UnionFind) Reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
		u.size[i] = 1
	}
	u.sets = len(u.parent)
}

// Components returns, for each element, a dense component index in
// [0, Sets()), numbering components in order of first appearance.
func (u *UnionFind) Components() (labels []int32, count int) {
	labels = make([]int32, len(u.parent))
	index := make(map[int]int32, u.sets)
	for i := range u.parent {
		r := u.Find(i)
		id, ok := index[r]
		if !ok {
			id = int32(len(index))
			index[r] = id
		}
		labels[i] = id
	}
	return labels, len(index)
}
