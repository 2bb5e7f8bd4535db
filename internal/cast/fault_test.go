package cast

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestFaultBenignPlanMatchesHealthy pins the faulted engines to the
// healthy ones: a plan that kills nothing must reproduce Run's Result
// field for field (rounds, throughput, both congestion meters) and
// report full delivery, in both congestion models.
func TestFaultBenignPlanMatchesHealthy(t *testing.T) {
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
		if err != nil {
			t.Fatal(err)
		}
		demands := []Demand{AllToAll(g.N()), {Sources: []int{0, 1, 2}}}
		for i, d := range demands {
			seed := uint64(50 + i)
			want, err := s.Run(d, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.RunFaulted(d, seed, FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Result != want {
				t.Fatalf("model %v demand %d: benign faulted run %+v != healthy %+v", model, i, got.Result, want)
			}
			if got.DeliveredFraction != 1 || got.MessagesLost != 0 || got.Retries != 0 {
				t.Fatalf("model %v demand %d: benign run reported losses: %+v", model, i, got)
			}
			if got.PairsDelivered != got.PairsExpected || got.PairsExpected != g.N()*len(d.Sources) {
				t.Fatalf("model %v demand %d: benign pair accounting wrong: %+v", model, i, got)
			}
			if got.TreesSurviving != len(trees) {
				t.Fatalf("model %v demand %d: %d/%d trees survive a benign plan", model, i, got.TreesSurviving, len(trees))
			}
		}
	}
}

// TestFaultDeterministicAcrossClones is the determinism gate for
// faulted runs: the same (demand, seed, plan) must produce an identical
// FaultResult on a handle, on a repeat of the same handle, and on a
// Clone — including plans with seeded random kill sets.
func TestFaultDeterministicAcrossClones(t *testing.T) {
	plans := []FaultPlan{
		{Round: 1, RandomEdges: 3, Seed: 99},
		{Round: 0, RandomVertices: 2, RandomEdges: 2, Seed: 7},
		{Round: 2, Edges: []int{0, 5}, Vertices: []int{3}},
	}
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
		if err != nil {
			t.Fatal(err)
		}
		clone := s.Clone()
		d := AllToAll(g.N())
		for pi, plan := range plans {
			first, err := s.RunFaulted(d, 11, plan)
			if err != nil {
				t.Fatal(err)
			}
			again, err := s.RunFaulted(d, 11, plan)
			if err != nil {
				t.Fatal(err)
			}
			if first != again {
				t.Fatalf("model %v plan %d: repeat diverged: %+v vs %+v", model, pi, first, again)
			}
			cloned, err := clone.RunFaulted(d, 11, plan)
			if err != nil {
				t.Fatal(err)
			}
			if first != cloned {
				t.Fatalf("model %v plan %d: clone diverged: %+v vs %+v", model, pi, first, cloned)
			}
		}
		// A healthy Run after faulted runs must be untouched by the fault
		// scratch state.
		h1, err := s.Run(d, 11)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := clone.Clone().Run(d, 11)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("model %v: healthy run diverged after faulted runs: %+v vs %+v", model, h1, h2)
		}
	}
}

// TestFaultAccountingInvariants spot-checks the delivery arithmetic
// under real damage across both models and a sweep of kill counts.
func TestFaultAccountingInvariants(t *testing.T) {
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
		if err != nil {
			t.Fatal(err)
		}
		d := AllToAll(g.N())
		for kills := 0; kills <= g.M()/2; kills += max(1, g.M()/8) {
			plan := FaultPlan{Round: 1, RandomEdges: kills, Seed: uint64(kills) + 1}
			res, err := s.RunFaulted(d, 13, plan)
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedEdges != kills {
				t.Fatalf("model %v kills=%d: FailedEdges=%d", model, kills, res.FailedEdges)
			}
			if res.PairsDelivered > res.PairsExpected {
				t.Fatalf("model %v kills=%d: delivered %d > expected %d", model, kills, res.PairsDelivered, res.PairsExpected)
			}
			if res.MessagesDelivered+res.MessagesLost != len(d.Sources) {
				t.Fatalf("model %v kills=%d: delivered %d + lost %d != %d messages", model, kills, res.MessagesDelivered, res.MessagesLost, len(d.Sources))
			}
			want := float64(res.PairsDelivered) / float64(res.PairsExpected)
			if res.DeliveredFraction != want {
				t.Fatalf("model %v kills=%d: fraction %v != %d/%d", model, kills, res.DeliveredFraction, res.PairsDelivered, res.PairsExpected)
			}
			if res.TreesSurviving < 0 || res.TreesSurviving > len(trees) {
				t.Fatalf("model %v kills=%d: TreesSurviving=%d of %d", model, kills, res.TreesSurviving, len(trees))
			}
		}
	}
}

// TestFaultVertexKillExcludesTargets pins the "surviving vertices"
// accounting: dead vertices are not delivery targets, so expected pairs
// shrink accordingly, and killing a non-source vertex on a well-
// connected graph still yields full delivery to the survivors.
func TestFaultVertexKillExcludesTargets(t *testing.T) {
	g := graph.Hypercube(4)
	trees := spanTrees(t, g, 5)
	s, err := NewScheduler(g, trees, sim.ECongest)
	if err != nil {
		t.Fatal(err)
	}
	d := Demand{Sources: []int{0, 1, 2, 3}}
	res, err := s.RunFaulted(d, 3, FaultPlan{Round: 1, Vertices: []int{9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedVertices != 1 {
		t.Fatalf("FailedVertices=%d, want 1", res.FailedVertices)
	}
	if res.PairsExpected != len(d.Sources)*(g.N()-1) {
		t.Fatalf("PairsExpected=%d, want %d", res.PairsExpected, len(d.Sources)*(g.N()-1))
	}
	// A single vertex failure is far below the hypercube's connectivity:
	// rerouting over surviving structure must deliver everything.
	if res.DeliveredFraction != 1 {
		t.Fatalf("one dead vertex lost traffic: %+v", res)
	}
	// Spanning trees all contain the dead vertex, so none survive whole.
	if res.TreesSurviving != 0 {
		t.Fatalf("TreesSurviving=%d with a dead vertex under spanning trees", res.TreesSurviving)
	}
}

// TestFaultFullDeliveryBelowConnectivity is the paper's robustness
// claim in miniature: killing a handful of edges of a highly connected
// graph (far below the connectivity bound) must still deliver every
// message to every surviving vertex via rerouting.
func TestFaultFullDeliveryBelowConnectivity(t *testing.T) {
	g := graph.Complete(16) // λ = 15
	trees := spanTrees(t, g, 1)
	s, err := NewScheduler(g, trees, sim.ECongest)
	if err != nil {
		t.Fatal(err)
	}
	d := AllToAll(g.N())
	for _, kills := range []int{1, 3, 5} {
		res, err := s.RunFaulted(d, 17, FaultPlan{Round: 1, RandomEdges: kills, Seed: uint64(kills)})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredFraction != 1 {
			t.Fatalf("kills=%d (λ=15): lost traffic: %+v", kills, res)
		}
	}
}

// TestFaultPlanValidation rejects malformed plans.
func TestFaultPlanValidation(t *testing.T) {
	g := graph.Complete(4)
	tr := graph.TreeFromBFS(g, 0)
	s, err := NewScheduler(g, []WeightedTree{{Tree: tr, Weight: 1}}, sim.VCongest)
	if err != nil {
		t.Fatal(err)
	}
	d := AllToAll(4)
	bad := []FaultPlan{
		{Round: -1},
		{Edges: []int{g.M()}},
		{Edges: []int{-1}},
		{Vertices: []int{4}},
		{Vertices: []int{-2}},
		{RandomEdges: -1},
		{RandomVertices: -3},
		{MaxRetries: maxFaultRetries + 1},
	}
	for i, plan := range bad {
		if _, err := s.RunFaulted(d, 1, plan); err == nil {
			t.Fatalf("plan %d (%+v) accepted", i, plan)
		}
	}
	if _, err := s.RunFaulted(Demand{}, 1, FaultPlan{}); err == nil {
		t.Fatal("empty demand accepted")
	}
	if _, err := s.RunFaulted(d, 1, FaultPlan{MaxRetries: maxFaultRetries}); err != nil {
		t.Fatalf("retry budget at the cap rejected: %v", err)
	}
}

// TestRunContextCancellation covers the cooperative-cancellation paths:
// an already-cancelled context aborts healthy and faulted runs with the
// context's error, and the handle remains usable afterwards.
func TestRunContextCancellation(t *testing.T) {
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
		if err != nil {
			t.Fatal(err)
		}
		d := AllToAll(g.N())
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.RunContext(ctx, d, 1); err != context.Canceled {
			t.Fatalf("model %v: RunContext with cancelled ctx: err=%v", model, err)
		}
		if _, err := s.RunFaultedContext(ctx, d, 1, FaultPlan{Round: 1, RandomEdges: 1, Seed: 1}); err != context.Canceled {
			t.Fatalf("model %v: RunFaultedContext with cancelled ctx: err=%v", model, err)
		}
		// The handle must recover fully: a healthy run after cancellation
		// matches a fresh clone's.
		got, err := s.Run(d, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Clone().Run(d, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("model %v: post-cancel run diverged: %+v vs %+v", model, got, want)
		}
	}
}

// TestFaultConcurrentClones runs faulted demands on many clones at once
// (the serve layer's usage) and checks every goroutine sees the serial
// result; under -race this doubles as the data-race gate for the fault
// scratch buffers.
func TestFaultConcurrentClones(t *testing.T) {
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
		if err != nil {
			t.Fatal(err)
		}
		d := AllToAll(g.N())
		plan := FaultPlan{Round: 1, RandomEdges: 2, RandomVertices: 1, Seed: 21}
		want, err := s.RunFaulted(d, 9, plan)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 4
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := s.Clone()
				for i := 0; i < 3; i++ {
					got, err := c.RunFaulted(d, 9, plan)
					if err != nil {
						errs[w] = err
						return
					}
					if got != want {
						t.Errorf("model %v worker %d: %+v != %+v", model, w, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
