// Package ds provides the small data structures shared by the
// connectivity-decomposition substrates: union-find, bitsets and the
// Rank of a bit in a bitmask row, the load-order maintenance helper
// behind the spanning-tree MWU engine, deterministic random-number
// streams, and GrowClear for buffers reused across runs.
package ds

// UnionFind is a disjoint-set forest with union by rank and path halving.
// The dominating-tree packer counts each class's components (the M_ell
// quantity of the paper's Section 3.1) from Union's result.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns a union-find over elements 0..n-1, each in its own
// singleton set.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]int8, n),
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

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
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	return true
}

// Reset returns every element to its own singleton set, reusing storage.
func (u *UnionFind) Reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
}
