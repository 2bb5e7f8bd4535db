package sim

import (
	"testing"

	"repro/internal/graph"
)

// chatterProc broadcasts for `limit` rounds, then stops — a steady
// message load that exercises the engine's outbox, routing, and inbox
// paths every round.
type chatterProc struct {
	limit  int
	rounds int
}

func (p *chatterProc) Round(ctx *Context, inbox []Delivery) Status {
	if p.rounds >= p.limit {
		return Done
	}
	p.rounds++
	ctx.Broadcast(Msg(1, int64(p.rounds), int64(len(inbox))))
	return Active
}

func chatterEngine(t testing.TB, g *graph.Graph, model Model, limit int, opts ...Option) (*Engine, []Process, []*chatterProc) {
	nodes := make([]*chatterProc, g.N())
	procs := make([]Process, g.N())
	for i := range procs {
		nodes[i] = &chatterProc{limit: limit}
		procs[i] = nodes[i]
	}
	eng, err := NewEngine(g, model, procs, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, procs, nodes
}

// TestSteadyStateStepAllocations pins the zero-churn contract: after a
// warm-up phase has grown every buffer, a full Reset+RunPhase cycle on
// the same engine performs no per-round allocation at all, with and
// without a delivery observer.
func TestSteadyStateStepAllocations(t *testing.T) {
	var copies int
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"unobserved", nil},
		{"observed", []Option{WithDeliveryObserver(func(from, to int32, bits int) { copies++ })}},
	} {
		for _, model := range []Model{VCongest, ECongest} {
			g := graph.Hypercube(6)
			const limit = 16
			eng, procs, nodes := chatterEngine(t, g, model, limit, cfg.opts...)
			if err := eng.RunPhase(limit + 4); err != nil { // warm-up growth
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				for _, nd := range nodes {
					nd.rounds = 0
				}
				if err := eng.Reset(procs, 1, cfg.opts...); err != nil {
					t.Fatal(err)
				}
				if err := eng.RunPhase(limit + 4); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("%v, %s: warm Reset+RunPhase (%d rounds) allocated %.0f times, want 0", model, cfg.name, limit, allocs)
			}
		}
	}
	if copies == 0 {
		t.Fatal("observer never called")
	}
}

// BenchmarkEngineStepFlood measures the Engine.step-heavy path (the
// cost under every distributed experiment) with allocation reporting:
// one op is a full 16-round broadcast phase over Q6 on a reused engine.
func BenchmarkEngineStepFlood(b *testing.B) {
	for _, tc := range []struct {
		name  string
		model Model
	}{
		{"VCongest", VCongest},
		{"ECongest", ECongest},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := graph.Hypercube(6)
			const limit = 16
			eng, procs, nodes := chatterEngine(b, g, tc.model, limit)
			if err := eng.RunPhase(limit + 4); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, nd := range nodes {
					nd.rounds = 0
				}
				if err := eng.Reset(procs, uint64(i)); err != nil {
					b.Fatal(err)
				}
				if err := eng.RunPhase(limit + 4); err != nil {
					b.Fatal(err)
				}
			}
			rounds := float64(eng.Meter().RawRounds)
			b.ReportMetric(rounds, "rounds/op")
		})
	}
}

// BenchmarkEngineStepFreshEngines is the contrast case: the same
// workload allocating a new engine per phase, the pattern the drivers
// moved away from.
func BenchmarkEngineStepFreshEngines(b *testing.B) {
	g := graph.Hypercube(6)
	const limit = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nodes := make([]*chatterProc, g.N())
		procs := make([]Process, g.N())
		for j := range procs {
			nodes[j] = &chatterProc{limit: limit}
			procs[j] = nodes[j]
		}
		eng, err := NewEngine(g, VCongest, procs, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.RunPhase(limit + 4); err != nil {
			b.Fatal(err)
		}
	}
}
