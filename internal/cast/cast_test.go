package cast

import (
	"testing"

	"repro/internal/cds"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stp"
)

func domTrees(t testing.TB, g *graph.Graph, seed uint64) []WeightedTree {
	t.Helper()
	p, err := cds.Pack(g, cds.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]WeightedTree, len(p.Trees))
	for i, tr := range p.Trees {
		out[i] = WeightedTree{Tree: tr.Tree, Weight: tr.Weight}
	}
	return out
}

func spanTrees(t testing.TB, g *graph.Graph, seed uint64) []WeightedTree {
	t.Helper()
	p, err := stp.Pack(g, stp.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]WeightedTree, len(p.Trees))
	for i, tr := range p.Trees {
		out[i] = WeightedTree{Tree: tr.Tree, Weight: tr.Weight}
	}
	return out
}

func TestBroadcastValidation(t *testing.T) {
	g := graph.Complete(4)
	if _, err := Broadcast(g, nil, AllToAll(4), sim.VCongest, 1); err == nil {
		t.Fatal("no trees accepted")
	}
	tr := graph.TreeFromBFS(g, 0)
	if _, err := Broadcast(g, []WeightedTree{{Tree: tr, Weight: 1}}, Demand{}, sim.VCongest, 1); err == nil {
		t.Fatal("empty demand accepted")
	}
	// A non-spanning tree must be rejected in E-CONGEST.
	partial, err := graph.NewTree(4, 0, map[int]int{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Broadcast(g, []WeightedTree{{Tree: partial, Weight: 1}}, AllToAll(4), sim.ECongest, 1); err == nil {
		t.Fatal("non-spanning tree accepted in E-CONGEST")
	}
}

func TestBroadcastVertexModelDelivers(t *testing.T) {
	g := graph.Hypercube(5)
	trees := domTrees(t, g, 3)
	res, err := Broadcast(g, trees, AllToAll(g.N()), sim.VCongest, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.MaxVertexCongestion <= 0 {
		t.Fatal("no congestion recorded")
	}
}

func TestBroadcastEdgeModelDelivers(t *testing.T) {
	g := graph.Hypercube(4)
	trees := spanTrees(t, g, 5)
	res, err := Broadcast(g, trees, AllToAll(g.N()), sim.ECongest, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestPackingBeatsSingleTreeOnWellConnectedGraph(t *testing.T) {
	// Corollary 1.4's point: a k-connected graph sustains ~k/log n
	// messages per round versus 1 for a single tree. With n messages on
	// Q6 the packing must finish in fewer rounds.
	g := graph.Hypercube(6)
	trees := domTrees(t, g, 11)
	if len(trees) < 2 {
		t.Skip("packing degenerated to one tree")
	}
	demand := AllToAll(g.N())
	multi, err := Broadcast(g, trees, demand, sim.VCongest, 13)
	if err != nil {
		t.Fatal(err)
	}
	single, err := SingleTreeBaseline(g, demand, sim.VCongest, 13)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Rounds >= single.Rounds {
		t.Fatalf("packing (%d rounds) not faster than single tree (%d rounds)",
			multi.Rounds, single.Rounds)
	}
}

func TestEdgePackingBeatsSingleTree(t *testing.T) {
	g := graph.Complete(16) // λ=15, packing size ~7
	trees := spanTrees(t, g, 15)
	if len(trees) < 2 {
		t.Skip("packing degenerated to one tree")
	}
	demand := AllToAll(g.N())
	multi, err := Broadcast(g, trees, demand, sim.ECongest, 17)
	if err != nil {
		t.Fatal(err)
	}
	single, err := SingleTreeBaseline(g, demand, sim.ECongest, 17)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Rounds >= single.Rounds {
		t.Fatalf("packing (%d rounds) not faster than single tree (%d rounds)",
			multi.Rounds, single.Rounds)
	}
}

func TestObliviousVertexCongestionCompetitive(t *testing.T) {
	// Corollary 1.6: vertex congestion is O(log n)-competitive against
	// the information-theoretic optimum N/k.
	g := graph.Hypercube(5) // k=5
	trees := domTrees(t, g, 19)
	n := g.N()
	nMsgs := 4 * n
	demand := UniformDemand(n, nMsgs, ds.NewRand(21))
	res, err := Broadcast(g, trees, demand, sim.VCongest, 23)
	if err != nil {
		t.Fatal(err)
	}
	opt := float64(nMsgs) / 5.0
	competitiveness := float64(res.MaxVertexCongestion) / opt
	// Lenient constant: 12·log2(n).
	if competitiveness > 12*5 {
		t.Fatalf("vertex-congestion competitiveness %.2f too high", competitiveness)
	}
}

func TestUniformDemandSources(t *testing.T) {
	d := UniformDemand(10, 50, ds.NewRand(1))
	if len(d.Sources) != 50 {
		t.Fatalf("got %d sources", len(d.Sources))
	}
	for _, s := range d.Sources {
		if s < 0 || s >= 10 {
			t.Fatalf("source %d out of range", s)
		}
	}
}

func TestAssignTreesProportional(t *testing.T) {
	g := graph.Complete(3)
	tr := graph.TreeFromBFS(g, 0)
	trees := []WeightedTree{
		{Tree: tr, Weight: 0.9},
		{Tree: tr, Weight: 0.1},
	}
	s, err := NewScheduler(g, trees, sim.VCongest)
	if err != nil {
		t.Fatal(err)
	}
	ds.Reseed(s.pcg, 2)
	s.assignDemand(10000)
	count := 0
	for _, a := range s.assign {
		if a == 0 {
			count++
		}
	}
	if count < 8500 || count > 9500 {
		t.Fatalf("tree 0 got %d/10000 assignments, want ~9000", count)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := graph.Hypercube(4)
	trees := domTrees(t, g, 25)
	d := AllToAll(g.N())
	r1, err := Broadcast(g, trees, d, sim.VCongest, 27)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Broadcast(g, trees, d, sim.VCongest, 27)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}
