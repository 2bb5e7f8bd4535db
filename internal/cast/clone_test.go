package cast

import (
	"sync"
	"testing"

	"repro/internal/ds"
	"repro/internal/sim"
)

// cloneWorkload returns the demand/seed grid the clone tests replay:
// nWorkers workers × nDemands demands each, sizes varying per demand so
// buffer regrowth is exercised inside each clone.
func cloneWorkload(n, nWorkers, nDemands int) [][]Demand {
	demands := make([][]Demand, nWorkers)
	for w := range demands {
		demands[w] = make([]Demand, nDemands)
		for d := range demands[w] {
			size := n/2 + (w*nDemands+d)%(2*n)
			demands[w][d] = UniformDemand(n, max(size, 1), ds.NewRand(uint64(1000+w*nDemands+d)))
		}
	}
	return demands
}

func cloneSeed(w, d int) uint64 { return uint64(7 + w*31 + d) }

// TestSchedulerCloneConcurrentMatchesSerial is the shared-core gate: in
// both congestion models, 8 clones of one scheduler core each serve 16
// demands concurrently, and every result must be byte-identical to a
// serial replay of the same (demand, seed) on the original handle. Run
// under -race (the make ci race set includes internal/cast) this also
// proves the core is never written after construction.
func TestSchedulerCloneConcurrentMatchesSerial(t *testing.T) {
	const nWorkers, nDemands = 8, 16
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		g, trees := schedulerFixture(t, model)
		s, err := NewScheduler(g, trees, model)
		if err != nil {
			t.Fatal(err)
		}
		demands := cloneWorkload(g.N(), nWorkers, nDemands)

		// Serial replay on the original handle first.
		want := make([][]Result, nWorkers)
		for w := range demands {
			want[w] = make([]Result, nDemands)
			for d, dem := range demands[w] {
				r, err := s.Run(dem, cloneSeed(w, d))
				if err != nil {
					t.Fatalf("model %v serial (%d,%d): %v", model, w, d, err)
				}
				want[w][d] = r
			}
		}

		got := make([][]Result, nWorkers)
		errs := make([]error, nWorkers)
		var wg sync.WaitGroup
		for w := 0; w < nWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := s.Clone()
				got[w] = make([]Result, nDemands)
				for d, dem := range demands[w] {
					r, err := c.Run(dem, cloneSeed(w, d))
					if err != nil {
						errs[w] = err
						return
					}
					got[w][d] = r
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < nWorkers; w++ {
			if errs[w] != nil {
				t.Fatalf("model %v clone %d: %v", model, w, errs[w])
			}
			for d := range got[w] {
				if got[w][d] != want[w][d] {
					t.Fatalf("model %v clone %d demand %d: concurrent %+v != serial %+v",
						model, w, d, got[w][d], want[w][d])
				}
			}
		}
	}
}

// TestSchedulerCloneOfCloneSharesCore pins that cloning a clone yields a
// handle over the same core with identical behavior.
func TestSchedulerCloneOfCloneSharesCore(t *testing.T) {
	g, trees := schedulerFixture(t, sim.ECongest)
	s, err := NewScheduler(g, trees, sim.ECongest)
	if err != nil {
		t.Fatal(err)
	}
	cc := s.Clone().Clone()
	if cc.core != s.core {
		t.Fatal("clone of clone does not share the original core")
	}
	d := AllToAll(g.N())
	r1, err := s.Run(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cc.Run(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("clone of clone diverged: %+v vs %+v", r1, r2)
	}
}

// TestSchedulerClonePoolZeroSteadyStateAllocs is the free-list
// allocation gate, in the shape internal/serve uses: warm handles — the
// prototype and its clones — taken from a bounded channel, run, and
// returned must not allocate at all in steady state, in either model.
func TestSchedulerClonePoolZeroSteadyStateAllocs(t *testing.T) {
	for _, fx := range handleFixtures(t) {
		s, err := NewScheduler(fx.g, fx.trees, fx.model)
		if err != nil {
			t.Fatal(err)
		}
		d := AllToAll(fx.g.N())
		// Warm a handful of handles to the demand size.
		const warm = 4
		free := make(chan *Scheduler, warm)
		for i := 0; i < warm; i++ {
			c := s
			if i > 0 {
				c = s.Clone()
			}
			if _, err := c.Run(d, uint64(i)); err != nil {
				t.Fatal(err)
			}
			free <- c
		}
		var i int
		allocs := testing.AllocsPerRun(2*warm, func() {
			i++
			c := <-free
			if _, err := c.Run(d, uint64(i%warm)); err != nil {
				t.Fatal(err)
			}
			free <- c
		})
		if allocs != 0 {
			t.Fatalf("%s: warm free-list handle made %.1f allocations per run, want 0", fx.name, allocs)
		}
	}
}
