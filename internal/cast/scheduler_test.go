package cast

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// schedulerFixture returns a (graph, trees) pair valid for the model.
func schedulerFixture(t testing.TB, model sim.Model) (*graph.Graph, []graph.WeightedTree) {
	t.Helper()
	if model == sim.VCongest {
		g := graph.Hypercube(5)
		return g, domTrees(t, g, 3)
	}
	g := graph.Hypercube(4)
	return g, spanTrees(t, g, 5)
}

// handleFixture is one decomposition the handle tests serve, with a
// fault plan whose random edge kills stall floods of an all-to-all
// demand on it, forcing reroutes.
type handleFixture struct {
	name  string
	model sim.Model
	g     *graph.Graph
	trees []graph.WeightedTree
	plan  FaultPlan
}

// handleFixtures returns both models' schedulerFixture decompositions
// and K40's spanning packing under stp.Pack's defaults, in which every
// vertex has degree 39: more ports than one 32-bit word holds.
func handleFixtures(t testing.TB) []handleFixture {
	t.Helper()
	var fs []handleFixture
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		fs = append(fs, handleFixture{model.String(), model, g, trees, reroutingPlan(model)})
	}
	k40 := graph.Complete(40)
	return append(fs, handleFixture{"K40 " + sim.ECongest.String(), sim.ECongest, k40, spanTrees(t, k40, 0),
		FaultPlan{Round: 1, RandomEdges: 3, Seed: 110}})
}

// TestSchedulerReuseMatchesFreshBroadcast is the reuse determinism gate:
// one handle serving N demands of varying sizes (growing and shrinking,
// so buffer reuse across size changes is exercised) must produce results
// identical to N fresh Broadcast calls, in both congestion models.
func TestSchedulerReuseMatchesFreshBroadcast(t *testing.T) {
	for _, fx := range handleFixtures(t) {
		g, trees := fx.g, fx.trees
		s, err := NewScheduler(g, trees, fx.model)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		demands := []Demand{
			AllToAll(n),
			UniformDemand(n, 4*n, ds.NewRand(41)),
			UniformDemand(n, 3, ds.NewRand(42)),
			UniformDemand(n, 2*n, ds.NewRand(43)),
			AllToAll(n),
		}
		for i, d := range demands {
			seed := uint64(100 + i)
			got, err := s.Run(d, seed)
			if err != nil {
				t.Fatalf("%s demand %d: %v", fx.name, i, err)
			}
			want, err := Broadcast(g, trees, d, fx.model, seed)
			if err != nil {
				t.Fatalf("%s demand %d: %v", fx.name, i, err)
			}
			if got != want {
				t.Fatalf("%s demand %d: reused handle %+v != fresh broadcast %+v", fx.name, i, got, want)
			}
		}
	}
}

// TestSchedulerRunRepeatable pins that re-serving the same (demand, seed)
// pair through one handle is exactly reproducible.
func TestSchedulerRunRepeatable(t *testing.T) {
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
		if err != nil {
			t.Fatal(err)
		}
		d := AllToAll(g.N())
		r1, err := s.Run(d, 7)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s.Run(d, 7)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("model %v: same (demand, seed) diverged: %+v vs %+v", model, r1, r2)
		}
	}
}

// TestSchedulerValidation mirrors the Broadcast validation at
// construction/run time.
func TestSchedulerValidation(t *testing.T) {
	g := graph.Complete(4)
	if _, err := NewScheduler(g, nil, sim.VCongest); err == nil {
		t.Fatal("no trees accepted")
	}
	partial, err := graph.NewTree(4, 0, map[int]int{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler(g, []graph.WeightedTree{{Tree: partial, Weight: 1}}, sim.ECongest); err == nil {
		t.Fatal("non-spanning tree accepted in E-CONGEST")
	}
	tr := graph.TreeFromBFS(g, 0)
	s, err := NewScheduler(g, []graph.WeightedTree{{Tree: tr, Weight: 1}}, sim.VCongest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Demand{}, 1); err == nil {
		t.Fatal("empty demand accepted")
	}
}

// TestSchedulerRejectsBadWeights: the tree pick needs positive, finite
// weights with a finite sum. Before NewScheduler checked them, three
// trees weighted 0.5, w, 0.5 sent all 10,000 messages of a demand to
// tree 2 at w = NaN, to tree 1 at w = +Inf and to tree 0 at w = -1.
func TestSchedulerRejectsBadWeights(t *testing.T) {
	g := graph.Complete(4)
	tr := graph.TreeFromBFS(g, 0)
	for _, tc := range []struct {
		name    string
		w, last float64
		wantErr string // "" accepts
	}{
		{"NaN", math.NaN(), 0.5, "tree 1 has weight NaN"},
		{"+Inf", math.Inf(1), 0.5, "tree 1 has weight +Inf"},
		{"-Inf", math.Inf(-1), 0.5, "tree 1 has weight -Inf"},
		{"negative", -1, 0.5, "tree 1 has weight -1"},
		{"zero", 0, 0.5, "tree 1 has weight 0"},
		{"negative zero", math.Copysign(0, -1), 0.5, "tree 1 has weight -0"},
		{"last tree", 0.5, -0.25, "tree 2 has weight -0.25"},
		{"sum overflows", math.MaxFloat64, math.MaxFloat64, "sum past the float64 range"},
		{"subnormal", math.SmallestNonzeroFloat64, 0.5, ""},
		{"largest finite", math.MaxFloat64, 0.5, ""},
		{"valid", 0.25, 0.5, ""},
	} {
		trees := []graph.WeightedTree{{Tree: tr, Weight: 0.5}, {Tree: tr, Weight: tc.w}, {Tree: tr, Weight: tc.last}}
		for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
			_, err := NewScheduler(g, trees, model)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("%s, %v: rejected: %v", tc.name, model, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("%s, %v: got error %v, want one containing %q", tc.name, model, err, tc.wantErr)
			}
		}
	}
}

// TestSchedulerRejectsMissingEdges: a tree edge the graph lacks is
// rejected in both models, naming the tree and the edge. Before
// NewScheduler checked it, the E-CONGEST build skipped the edge: an
// all-to-all Run on C6 with the spanning tree through (2,5) failed with
// "edge scheduler stalled after 144 rounds", and one in V-CONGEST on P6
// with the tree {1,4} with "vertex scheduler stalled after 144 rounds".
// A tree holding a vertex the graph lacks made NewScheduler panic with
// an index out of range in both models.
func TestSchedulerRejectsMissingEdges(t *testing.T) {
	tree := func(root int, parent ...int32) *graph.Tree {
		t.Helper()
		tr, err := graph.TreeFromParents(root, parent)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	const x, r = graph.TreeAbsent, graph.TreeRoot
	c6, p6 := graph.Cycle(6), graph.Path(6)
	c6path := tree(0, r, 0, 1, 2, 3, 4)
	c6chord := tree(0, r, 0, 1, 2, 3, 2) // 5's parent is 2
	p6stub := tree(1, x, r, x, x, 1, x)  // {1,4}, which dominates P6
	p6star := tree(1, 1, r, 1, 2, x, x)  // {0,1,2,3}: 4 and 5 undominated
	p6pair := tree(1, x, r, x, x, 5, 1)  // {1,4,5}: 4-5 hangs from 1 by (5,1)
	p6path := tree(0, r, 0, 1, 2, 3, 4)  // over P5, vertex 5 is not in the graph
	for _, tc := range []struct {
		name    string
		model   sim.Model
		g       *graph.Graph
		trees   []*graph.Tree
		wantErr string // "" accepts
	}{
		{"C6 path", sim.ECongest, c6, []*graph.Tree{c6path}, ""},
		{"C6 chord", sim.ECongest, c6, []*graph.Tree{c6chord}, "tree 0: edge (5,2) not in the graph"},
		{"C6 chord second", sim.ECongest, c6, []*graph.Tree{c6path, c6chord}, "tree 1: edge (5,2) not in the graph"},
		{"C6 path, V", sim.VCongest, c6, []*graph.Tree{c6path}, ""},
		{"C6 chord, V", sim.VCongest, c6, []*graph.Tree{c6path, c6chord}, "tree 1: graph: tree edge (5,2) not in host graph"},
		{"P6 stub", sim.VCongest, p6, []*graph.Tree{p6stub}, "tree 0: graph: tree edge (4,1) not in host graph"},
		{"P6 undominated", sim.VCongest, p6, []*graph.Tree{p6star}, "tree 0 not dominating"},
		{"P6 pair", sim.VCongest, p6, []*graph.Tree{p6pair}, "tree 0: graph: tree edge (5,1) not in host graph"},
		{"P5, tree over 6", sim.ECongest, graph.Path(5), []*graph.Tree{p6path}, "tree 0: vertex 5 not in the graph (5 vertices)"},
		{"P5, tree over 6, V", sim.VCongest, graph.Path(5), []*graph.Tree{p6path}, "tree 0: vertex 5 not in the graph (5 vertices)"},
	} {
		trees := make([]graph.WeightedTree, len(tc.trees))
		for i, tr := range tc.trees {
			trees[i] = graph.WeightedTree{Tree: tr, Weight: 1}
		}
		s, err := NewScheduler(tc.g, trees, tc.model)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.wantErr)
		case err == nil:
			if _, err := s.Run(AllToAll(tc.g.N()), 1); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// TestSchedulerRunZeroSteadyStateAllocs is the steady-state allocation
// gate: once a handle has served a demand of a given size, re-serving
// demands of that size must not allocate at all, in either model — for
// healthy runs and for faulted runs whose random edge kills force
// reroutes.
func TestSchedulerRunZeroSteadyStateAllocs(t *testing.T) {
	for _, fx := range handleFixtures(t) {
		s, err := NewScheduler(fx.g, fx.trees, fx.model)
		if err != nil {
			t.Fatal(err)
		}
		d, plan := AllToAll(fx.g.N()), fx.plan
		if res, err := s.RunFaulted(d, 0, plan); err != nil || res.Retries == 0 {
			t.Fatalf("%s: faulted fixture run never rerouted: %+v, %v", fx.name, res, err)
		}
		for _, tc := range []struct {
			name string
			run  func(seed uint64) error
		}{
			{"Run", func(seed uint64) error { _, err := s.Run(d, seed); return err }},
			{"RunFaulted", func(seed uint64) error { _, err := s.RunFaulted(d, seed, plan); return err }},
		} {
			const seeds = 4
			for i := 0; i < seeds; i++ {
				if err := tc.run(uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			var i int
			allocs := testing.AllocsPerRun(2*seeds, func() {
				i++
				if err := tc.run(uint64(i % seeds)); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: warm Scheduler.%s made %.1f allocations per run, want 0", fx.name, tc.name, allocs)
			}
		}
	}
}

// reroutingPlan returns a fault plan whose random edge kills stall
// floods on the model's schedulerFixture graph, forcing reroutes.
func reroutingPlan(model sim.Model) FaultPlan {
	if model == sim.VCongest {
		return FaultPlan{Round: 1, RandomEdges: 24, Seed: 5} // fewer kills never stall a Q5 flood
	}
	return FaultPlan{Round: 1, RandomEdges: 6, Seed: 5}
}

// benchmarkSchedulerSteady measures a warm handle serving one demand per
// iteration, under the plan when one is given; with ReportAllocs it
// doubles as the steady-state zero-alloc witness in bench output.
func benchmarkSchedulerSteady(b *testing.B, model sim.Model, plan *FaultPlan) {
	g, trees := schedulerFixture(b, model)
	s, err := NewScheduler(g, trees, model)
	if err != nil {
		b.Fatal(err)
	}
	d := AllToAll(g.N())
	run := func(seed uint64) (err error) {
		if plan == nil {
			_, err = s.Run(d, seed)
		} else {
			_, err = s.RunFaulted(d, seed, *plan)
		}
		return err
	}
	const seeds = 8
	for i := 0; i < seeds; i++ {
		if err := run(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(uint64(i % seeds)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerSteadyVertex(b *testing.B) { benchmarkSchedulerSteady(b, sim.VCongest, nil) }

func BenchmarkSchedulerSteadyEdge(b *testing.B) { benchmarkSchedulerSteady(b, sim.ECongest, nil) }

func BenchmarkSchedulerFaultedVertex(b *testing.B) {
	plan := reroutingPlan(sim.VCongest)
	benchmarkSchedulerSteady(b, sim.VCongest, &plan)
}

func BenchmarkSchedulerFaultedEdge(b *testing.B) {
	plan := reroutingPlan(sim.ECongest)
	benchmarkSchedulerSteady(b, sim.ECongest, &plan)
}
