package cast

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// FuzzScheduler builds a graph of at most 48 vertices (so degrees pass
// one 32-bit port word) and up to four weighted trees from parent arrays
// through graph.TreeFromParents, in either model. A tree may leave
// vertices out and may join a vertex to a parent the graph does not
// connect it to. NewScheduler must accept exactly the decompositions
// whose trees span (E-CONGEST) or dominate (V-CONGEST) with edges of the
// graph; whenever it accepts, a healthy Run of a small demand must
// return no error, and a Clone must return the same Result.
//
// `make ci` runs a 10-second smoke of this fuzzer; longer local runs:
//
//	go test -run '^$' -fuzz FuzzScheduler -fuzztime 2m ./internal/cast
func FuzzScheduler(f *testing.F) {
	f.Add(uint8(39), uint8(255), uint64(1), false, []byte{0})                   // K40-like, one spanning tree
	f.Add(uint8(39), uint8(200), uint64(2), false, []byte{3, 5, 0, 0, 0, 0x80}) // dense, four trees, a non-edge
	f.Add(uint8(47), uint8(90), uint64(3), true, []byte{1, 0, 0xff, 9})         // V-CONGEST, a stub tree
	f.Add(uint8(5), uint8(128), uint64(4), true, []byte{2, 1, 2, 0x81, 0xff})   // small, a non-edge
	f.Fuzz(func(t *testing.T, size, density uint8, gseed uint64, vertex bool, spec []byte) {
		n := 1 + int(size)%48
		model := sim.ECongest
		if vertex {
			model = sim.VCongest
		}
		rng := ds.NewRand(gseed)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.IntN(256) < int(density) {
					b.AddEdge(u, v)
				}
			}
		}
		g := b.Graph()

		next := func() int {
			if len(spec) == 0 {
				return 0
			}
			c := spec[0]
			spec = spec[1:]
			return int(c)
		}
		trees := make([]graph.WeightedTree, 1+next()%4)
		valid := true
		for i := range trees {
			trees[i] = fuzzTree(t, g, next)
			tr := trees[i].Tree
			if tr.ValidateIn(g) != nil || (model == sim.ECongest && !tr.IsSpanning(g)) ||
				(model == sim.VCongest && !tr.IsDominatingIn(g)) {
				valid = false
			}
		}
		sources := make([]int, 1+next()%16)
		for i := range sources {
			sources[i] = next() % n
		}
		seed := uint64(next())

		s, err := NewScheduler(g, trees, model)
		if (err == nil) != valid {
			t.Fatalf("%v on n=%d m=%d: NewScheduler error %v, but the trees are valid: %v", model, n, g.M(), err, valid)
		}
		if err != nil {
			return
		}
		d := Demand{Sources: sources}
		res, err := s.Run(d, seed)
		if err != nil {
			t.Fatalf("%v on n=%d m=%d: %v", model, n, g.M(), err)
		}
		if cres, err := s.Clone().Run(d, seed); err != nil || cres != res {
			t.Fatalf("%v on n=%d m=%d: clone returned %+v, %v; handle %+v", model, n, g.M(), cres, err, res)
		}
	})
}

// fuzzTree grows a tree from a root, one vertex at a time, reading its
// choices from next: each byte picks the next vertex among those not yet
// in the tree (0xff ends the tree there), the following byte its parent
// among the tree's vertices, a graph neighbor unless the byte's top bit
// is set or the vertex has no neighbor in the tree. A last byte sets the
// weight, in (0, 32].
func fuzzTree(t *testing.T, g *graph.Graph, next func() int) graph.WeightedTree {
	n := g.N()
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = graph.TreeAbsent
	}
	root := next() % n
	parent[root] = graph.TreeRoot
	in := []int{root}
	for len(in) < n {
		pick := next()
		if pick == 0xff {
			break
		}
		var out []int
		for v := range parent {
			if parent[v] == graph.TreeAbsent {
				out = append(out, v)
			}
		}
		u := out[pick%len(out)]
		var nbrs []int
		for _, w := range g.Neighbors(u) {
			if parent[w] != graph.TreeAbsent {
				nbrs = append(nbrs, int(w))
			}
		}
		p := next()
		if p&0x80 != 0 || len(nbrs) == 0 {
			parent[u] = int32(in[p%len(in)])
		} else {
			parent[u] = int32(nbrs[p%len(nbrs)])
		}
		in = append(in, u)
	}
	tr, err := graph.TreeFromParents(root, parent)
	if err != nil {
		t.Fatalf("grown tree rejected: %v", err)
	}
	return graph.WeightedTree{Tree: tr, Weight: float64(1+next()) / 8}
}
