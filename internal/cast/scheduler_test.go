package cast

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// schedulerFixture returns a (graph, trees) pair valid for the model.
func schedulerFixture(t testing.TB, model sim.Model) (*graph.Graph, []WeightedTree) {
	t.Helper()
	if model == sim.VCongest {
		g := graph.Hypercube(5)
		return g, domTrees(t, g, 3)
	}
	g := graph.Hypercube(4)
	return g, spanTrees(t, g, 5)
}

// TestSchedulerReuseMatchesFreshBroadcast is the reuse determinism gate:
// one handle serving N demands of varying sizes (growing and shrinking,
// so buffer reuse across size changes is exercised) must produce results
// identical to N fresh Broadcast calls, in both congestion models.
func TestSchedulerReuseMatchesFreshBroadcast(t *testing.T) {
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
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
				t.Fatalf("model %v demand %d: %v", model, i, err)
			}
			want, err := Broadcast(g, trees, d, model, seed)
			if err != nil {
				t.Fatalf("model %v demand %d: %v", model, i, err)
			}
			if got != want {
				t.Fatalf("model %v demand %d: reused handle %+v != fresh broadcast %+v", model, i, got, want)
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
	if _, err := NewScheduler(g, []WeightedTree{{Tree: partial, Weight: 1}}, sim.ECongest); err == nil {
		t.Fatal("non-spanning tree accepted in E-CONGEST")
	}
	tr := graph.TreeFromBFS(g, 0)
	s, err := NewScheduler(g, []WeightedTree{{Tree: tr, Weight: 1}}, sim.VCongest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Demand{}, 1); err == nil {
		t.Fatal("empty demand accepted")
	}
}

// TestSchedulerRunZeroSteadyStateAllocs is the steady-state allocation
// gate: once a handle has served a demand of a given size, re-serving
// demands of that size must not allocate at all, in either model — for
// healthy runs and for faulted runs whose random edge kills force
// reroutes.
func TestSchedulerRunZeroSteadyStateAllocs(t *testing.T) {
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
		if err != nil {
			t.Fatal(err)
		}
		d := AllToAll(g.N())
		plan := reroutingPlan(model)
		if res, err := s.RunFaulted(d, 0, plan); err != nil || res.Retries == 0 {
			t.Fatalf("model %v: faulted fixture run never rerouted: %+v, %v", model, res, err)
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
				t.Fatalf("model %v: warm Scheduler.%s made %.1f allocations per run, want 0", model, tc.name, allocs)
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
