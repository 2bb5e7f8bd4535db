package cast

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cds"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stp"
)

func domTrees(t testing.TB, g *graph.Graph, seed uint64) []graph.WeightedTree {
	t.Helper()
	p, err := cds.Pack(g, cds.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p.Trees
}

func spanTrees(t testing.TB, g *graph.Graph, seed uint64) []graph.WeightedTree {
	t.Helper()
	p, err := stp.Pack(g, stp.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p.Trees
}

func TestBroadcastValidation(t *testing.T) {
	g := graph.Complete(4)
	if _, err := Broadcast(g, nil, AllToAll(4), sim.VCongest, 1); err == nil {
		t.Fatal("no trees accepted")
	}
	tr := graph.TreeFromBFS(g, 0)
	if _, err := Broadcast(g, []graph.WeightedTree{{Tree: tr, Weight: 1}}, Demand{}, sim.VCongest, 1); err == nil {
		t.Fatal("empty demand accepted")
	}
	// A non-spanning tree must be rejected in E-CONGEST.
	partial, err := graph.NewTree(4, 0, map[int]int{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Broadcast(g, []graph.WeightedTree{{Tree: partial, Weight: 1}}, AllToAll(4), sim.ECongest, 1); err == nil {
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
	trees := []graph.WeightedTree{
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

// TestAssignDemandMatchesLinearScan: the binary-search tree pick must
// choose, for every message, the tree a linear scan of the cumulative
// weights picks: the first j with r <= cum[j]. Weight vectors hold 1 to
// 4,101 trees; the "sub-ulp" vectors interleave weights below the ulp
// of the running sum, so runs of consecutive cum entries are equal and
// only the first tree of each run can be picked.
func TestAssignDemandMatchesLinearScan(t *testing.T) {
	g := graph.Complete(3)
	tr := graph.TreeFromBFS(g, 0)
	weightings := []struct {
		name   string
		weight func(rng *rand.Rand, i int) float64
	}{
		{"uniform", func(rng *rand.Rand, _ int) float64 { return 1 - rng.Float64() }},
		{"log-uniform", func(rng *rand.Rand, _ int) float64 { return math.Pow(10, -12*rng.Float64()) }},
		{"sub-ulp", func(rng *rand.Rand, i int) float64 {
			if i%3 == 0 {
				return 0.5 + rng.Float64()
			}
			return 1e-18 * (1 - rng.Float64())
		}},
	}
	for _, nTrees := range []int{1, 2, 3, 64, 4101} {
		for _, wt := range weightings {
			for seed := uint64(0); seed < 4; seed++ {
				wrng := ds.NewRand(1000*uint64(nTrees) + seed)
				trees := make([]graph.WeightedTree, nTrees)
				cum := make([]float64, nTrees)
				total, equal := 0.0, 0
				for i := range trees {
					trees[i] = graph.WeightedTree{Tree: tr, Weight: wt.weight(wrng, i)}
					total += trees[i].Weight
					cum[i] = total
					if i > 0 && cum[i] == cum[i-1] {
						equal++
					}
				}
				if wt.name == "sub-ulp" && nTrees >= 3 && equal == 0 {
					t.Fatalf("%d trees, %s: no equal consecutive cumulative weights", nTrees, wt.name)
				}
				s, err := NewScheduler(g, trees, sim.VCongest)
				if err != nil {
					t.Fatal(err)
				}
				const nMsgs = 4096
				ds.Reseed(s.pcg, seed)
				s.assignDemand(nMsgs)
				rng := ds.NewRand(seed)
				perTree := make([]int32, nTrees)
				for m := 0; m < nMsgs; m++ {
					r := rng.Float64() * total
					want := nTrees - 1
					for j, c := range cum {
						if r <= c {
							want = j
							break
						}
					}
					perTree[want]++
					if int(s.assign[m]) != want {
						t.Fatalf("%d trees, %s, seed %d: message %d (r=%v) went to tree %d, linear scan picks %d",
							nTrees, wt.name, seed, m, r, s.assign[m], want)
					}
				}
				if !slices.Equal(s.msgsPerTree, perTree) {
					t.Fatalf("%d trees, %s, seed %d: per-tree counts differ from the linear scan's", nTrees, wt.name, seed)
				}
			}
		}
	}
}

// TestAssignDemandExactBoundaries drives the tree pick with draws that
// land exactly on cumulative weights, where a search for the first
// j with r < cum[j] would disagree with the linear scan: cum is
// [0.5, 0.5, 0.5, 0.75, 1] (two weights below the ulp of 0.5), so
// r = 0.5 must pick tree 0, not tree 3, and r = 0.75 tree 3, not 4.
func TestAssignDemandExactBoundaries(t *testing.T) {
	g := graph.Complete(3)
	tr := graph.TreeFromBFS(g, 0)
	weights := []float64{0.5, 0x1p-60, 0x1p-60, 0.25, 0.25}
	trees := make([]graph.WeightedTree, len(weights))
	for i, w := range weights {
		trees[i] = graph.WeightedTree{Tree: tr, Weight: w}
	}
	s, err := NewScheduler(g, trees, sim.VCongest)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.core.cum, []float64{0.5, 0.5, 0.5, 0.75, 1}) {
		t.Fatalf("cumulative weights %v, want [0.5 0.5 0.5 0.75 1]", s.core.cum)
	}
	draws := []float64{0, 0x1p-53, 0.25, 0.5 - 0x1p-53, 0.5, 0.5 + 0x1p-53, 0.75, 0.75 + 0x1p-53, 1 - 0x1p-53}
	want := []int32{0, 0, 0, 0, 0, 3, 3, 4, 4}
	src := &drawSource{draws: draws}
	if x := rand.New(&drawSource{draws: draws[4:]}).Float64(); x != 0.5 {
		t.Fatalf("drawSource yields Float64 %v, want 0.5: rand.Float64's mapping changed", x)
	}
	s.rng = rand.New(src)
	s.assignDemand(len(draws))
	if !slices.Equal(s.assign, want) {
		t.Fatalf("draws %v picked trees %v, want %v", draws, s.assign, want)
	}
}

// drawSource is a rand.Source whose Float64 yields draws in turn; each
// draw must be a multiple of 2^-53 in [0, 1).
type drawSource struct {
	draws []float64
	i     int
}

func (d *drawSource) Uint64() uint64 {
	x := d.draws[d.i%len(d.draws)]
	d.i++
	return uint64(x * (1 << 53))
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
