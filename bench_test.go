// Benchmarks regenerating every experiment of README's experiment index
// (E1–E10) plus the design-choice ablations (A1–A5). Each bench
// reports the paper's quantity of interest as custom metrics alongside
// ns/op; cmd/experiments prints the same data as claimed-vs-measured
// tables.
//
// Iteration i runs seed i, so ns/op averages over seeds, but a
// seed-determined metric is taken from iteration 0 (seed 0), which
// every run has, or from a fixed seed set each op repeats (A1, E7
// faulted). Either way the metric does not follow b.N: -benchtime 3x
// and 7x print the same value.
package decomp_test

import (
	"fmt"
	"math"
	"testing"

	decomp "repro"
	"repro/internal/cast"
	"repro/internal/cds"
	"repro/internal/cdsdist"
	"repro/internal/check"
	"repro/internal/ds"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/sim"
	"repro/internal/stp"
	"repro/internal/stpdist"
	"repro/internal/tester"
)

// --- E1: Theorem 1.1 — distributed dominating-tree packing ---------------

func BenchmarkE1DomPackingDistributed(b *testing.B) {
	for _, d := range []int{4, 5, 6} {
		g := graph.Hypercube(d)
		b.Run(fmt.Sprintf("Q%d", d), func(b *testing.B) {
			var rounds, size float64
			for i := 0; i < b.N; i++ {
				res, err := cdsdist.PackWithGuess(g, 4*d, cds.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					rounds = float64(res.Meter.TotalRounds())
					size = res.Packing.Size()
				}
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(size, "packing-size")
		})
	}
}

// --- E2: Theorem 1.2 — centralized packing, O~(m) scaling ----------------

func BenchmarkE2DomPackingCentralized(b *testing.B) {
	for _, d := range []int{6, 8, 10} {
		g := graph.Hypercube(d)
		b.Run(fmt.Sprintf("Q%d_m%d", d, g.M()), func(b *testing.B) {
			var size float64
			for i := 0; i < b.N; i++ {
				p, err := cds.Pack(g, cds.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					size = p.Size()
				}
			}
			b.ReportMetric(size, "packing-size")
			b.ReportMetric(float64(g.M()), "edges")
		})
	}
}

// E2 cold: cds.Pack as the service runs it on a graph it has not seen,
// over four of perfbench's cold-pack families (E2 above covers
// hypercubes only), with every guess of Remark 3.1's loop timed.
func BenchmarkE2DomPackingCold(b *testing.B) {
	h12, err := graph.Harary(12, 160)
	if err != nil {
		b.Fatal(err)
	}
	cc, err := graph.CliqueChain(6, 12, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Q8", graph.Hypercube(8)},
		{"T16x16", graph.Torus(16, 16)},
		{"H12_160", h12},
		{"CC6_12_6", cc},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var size float64
			for i := 0; i < b.N; i++ {
				p, err := cds.Pack(tc.g, cds.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					size = p.Size()
				}
			}
			b.ReportMetric(size, "packing-size")
		})
	}
}

// --- E3: Theorem 1.3 — spanning-tree packing ------------------------------

func BenchmarkE3SpanPackingCentralized(b *testing.B) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		lambda int
	}{
		{"Q6", graph.Hypercube(6), 6},
		{"K16", graph.Complete(16), 15},
		{"K32", graph.Complete(32), 31},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var size float64
			for i := 0; i < b.N; i++ {
				p, err := stp.Pack(tc.g, stp.Options{Seed: uint64(i), KnownLambda: tc.lambda})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					size = p.Size()
				}
			}
			bound := math.Max(1, math.Ceil(float64(tc.lambda-1)/2))
			b.ReportMetric(size, "packing-size")
			b.ReportMetric(size/bound, "fraction-of-bound")
		})
	}
}

// E3 cold: stp.Pack as the service runs it on a graph it has not seen,
// with λ computed inside the pack (E3 above passes KnownLambda, so it
// never times λ). Reports the Lemma F.1 stop tests of the seed-0 pack
// that took the prefix exit (stop-skipped) and the full evaluation
// (stop-exact).
func BenchmarkE3SpanPackingCold(b *testing.B) {
	h8, err := graph.Harary(8, 112)
	if err != nil {
		b.Fatal(err)
	}
	h12, err := graph.Harary(12, 160)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Q8", graph.Hypercube(8)},
		{"T16x16", graph.Torus(16, 16)},
		{"H8_112", h8},
		{"H12_160", h12},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var exact, skipped float64
			for i := 0; i < b.N; i++ {
				p, err := stp.Pack(tc.g, stp.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					exact = float64(p.Stats.StopChecksExact)
					skipped = float64(p.Stats.StopChecksSkipped)
				}
			}
			b.ReportMetric(exact, "stop-exact/op")
			b.ReportMetric(skipped, "stop-skipped/op")
		})
	}
}

// coldPackDeck is perfbench's cold-pack deck: its 13 families, each
// under one vertex relabelling drawn from seed 0, since a cold-pack op
// packs a relabelled copy the service has not seen.
func coldPackDeck(b *testing.B) []*graph.Graph {
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	return relabelOnce([]*graph.Graph{
		graph.Hypercube(5), graph.Hypercube(6), graph.Hypercube(7), graph.Hypercube(8),
		graph.Torus(8, 8), graph.Torus(12, 12), graph.Torus(16, 16),
		must(graph.Harary(6, 64)), must(graph.Harary(8, 112)), must(graph.Harary(10, 96)), must(graph.Harary(12, 160)),
		must(graph.CliqueChain(8, 8, 4)), must(graph.CliqueChain(6, 12, 6)),
	})
}

// simDistDeck is perfbench's sim-dist deck: its 14 families, each under
// one vertex relabelling drawn from seed 0. The last, CC(8,6,3), has
// λ = 3, which takes the spanning packer's trivial low-λ path, so the
// deck packs it as a dominating slot only.
func simDistDeck(b *testing.B) []*graph.Graph {
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	return relabelOnce([]*graph.Graph{
		graph.Hypercube(4), graph.Hypercube(5), graph.Hypercube(6), graph.Complete(16), graph.Torus(8, 8),
		must(graph.Harary(4, 32)), must(graph.Harary(4, 64)), must(graph.Harary(4, 128)),
		must(graph.Harary(5, 32)), must(graph.Harary(5, 64)), must(graph.Harary(6, 32)), must(graph.Harary(6, 64)),
		must(graph.CliqueChain(4, 8, 4)), must(graph.CliqueChain(8, 6, 3)),
	})
}

// relabelOnce returns each graph under a vertex permutation drawn, in
// order, from one stream seeded 0.
func relabelOnce(families []*graph.Graph) []*graph.Graph {
	rng := ds.NewRand(0)
	deck := make([]*graph.Graph, len(families))
	for i, g := range families {
		perm := rng.Perm(g.N())
		edges := make([][2]int, 0, g.M())
		for _, e := range g.Edges() {
			edges = append(edges, [2]int{perm[e.U], perm[e.V]})
		}
		deck[i] = graph.FromEdgeList(g.N(), edges)
	}
	return deck
}

// BenchmarkColdPackDeck times one pass of each centralized packer over
// the cold-pack deck, the packs a cold-pack op runs: cds.Pack with every
// guess of Remark 3.1's loop, and stp.Pack with λ computed inside.
// Reports the sum of the seed-0 packing sizes over the deck.
func BenchmarkColdPackDeck(b *testing.B) {
	deck := coldPackDeck(b)
	for _, tc := range []struct {
		name string
		pack func(g *graph.Graph, seed uint64) (float64, error)
	}{
		{"cds.Pack", func(g *graph.Graph, seed uint64) (float64, error) {
			p, err := cds.Pack(g, cds.Options{Seed: seed})
			if err != nil {
				return 0, err
			}
			return p.Size(), nil
		}},
		{"stp.Pack", func(g *graph.Graph, seed uint64) (float64, error) {
			p, err := stp.Pack(g, stp.Options{Seed: seed})
			if err != nil {
				return 0, err
			}
			return p.Size(), nil
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sizes float64
			for i := 0; i < b.N; i++ {
				for _, g := range deck {
					size, err := tc.pack(g, uint64(i))
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						sizes += size
					}
				}
			}
			b.ReportMetric(sizes, "packing-size-sum")
		})
	}
}

// BenchmarkSimDistDeck times one pass of each distributed packer over
// the sim-dist deck, the packs a sim-dist op runs: cdsdist.Pack with
// Remark 3.1's guess loop and the Appendix E tester on every guess, and
// stpdist.Pack on every family but CC(8,6,3). Reports the seed-0 sums
// of the meters' total rounds and messages, which two builds doing
// identical work share.
func BenchmarkSimDistDeck(b *testing.B) {
	deck := simDistDeck(b)
	for _, tc := range []struct {
		name   string
		graphs []*graph.Graph
		pack   func(g *graph.Graph, seed uint64) (sim.Meter, error)
	}{
		{"cdsdist.Pack", deck, func(g *graph.Graph, seed uint64) (sim.Meter, error) {
			res, err := cdsdist.Pack(g, cds.Options{Seed: seed})
			if err != nil {
				return sim.Meter{}, err
			}
			return res.Meter, nil
		}},
		{"stpdist.Pack", deck[:len(deck)-1], func(g *graph.Graph, seed uint64) (sim.Meter, error) {
			res, err := stpdist.Pack(g, stp.Options{Seed: seed})
			if err != nil {
				return sim.Meter{}, err
			}
			return res.Meter, nil
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var rounds, messages float64
			for i := 0; i < b.N; i++ {
				for _, g := range tc.graphs {
					m, err := tc.pack(g, uint64(i))
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						rounds += float64(m.TotalRounds())
						messages += float64(m.Messages)
					}
				}
			}
			b.ReportMetric(rounds, "rounds-sum")
			b.ReportMetric(messages, "messages-sum")
		})
	}
}

func BenchmarkE3SpanPackingDistributed(b *testing.B) {
	g := graph.Hypercube(4)
	var rounds, size float64
	for i := 0; i < b.N; i++ {
		res, err := stpdist.Pack(g, stp.Options{Seed: uint64(i), KnownLambda: 4, Epsilon: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rounds = float64(res.Meter.TotalRounds())
			size = res.Packing.Size()
		}
	}
	b.ReportMetric(rounds, "rounds")
	b.ReportMetric(size, "packing-size")
}

// --- E4/E5: Corollaries 1.4, 1.5 — broadcast throughput -------------------

// E4 broadcasts over the dominating-tree packing in V-CONGEST; the
// packing is built outside the timed region.
func BenchmarkE4BroadcastVertex(b *testing.B) {
	g := graph.RandomHamCycles(256, 16, ds.NewRand(2))
	p, err := decomp.PackDominatingTrees(g, decomp.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	srcs := decomp.UniformSources(g.N(), 4*g.N(), 3)
	b.ResetTimer()
	var speedup, throughput float64
	for i := 0; i < b.N; i++ {
		multi, err := decomp.Broadcast(g, p, srcs, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		single, err := decomp.SingleTreeBroadcast(g, srcs, decomp.VCongest, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			speedup = float64(single.Rounds) / float64(multi.Rounds)
			throughput = multi.Throughput
		}
	}
	b.ReportMetric(throughput, "msgs/round")
	b.ReportMetric(speedup, "speedup-vs-tree")
}

// E5 broadcasts over the spanning-tree packing in E-CONGEST; the packing
// is built outside the timed region.
func BenchmarkE5BroadcastEdge(b *testing.B) {
	g, p := e5Packing(b)
	srcs := decomp.UniformSources(g.N(), 4*g.N(), 3)
	b.ResetTimer()
	var speedup, throughput float64
	for i := 0; i < b.N; i++ {
		multi, err := decomp.BroadcastEdges(g, p, srcs, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		single, err := decomp.SingleTreeBroadcast(g, srcs, decomp.ECongest, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			speedup = float64(single.Rounds) / float64(multi.Rounds)
			throughput = multi.Throughput
		}
	}
	b.ReportMetric(throughput, "msgs/round")
	b.ReportMetric(speedup, "speedup-vs-tree")
}

// e5Packing is the E5 workload: K16 (λ = 15) and its spanning-tree
// packing, which E5Steady and E7Faulted serve demands over too.
func e5Packing(b *testing.B) (*decomp.Graph, *decomp.SpanningTreePacking) {
	g := graph.Complete(16)
	p, err := decomp.PackSpanningTrees(g, decomp.WithSeed(1), decomp.WithKnownConnectivity(15))
	if err != nil {
		b.Fatal(err)
	}
	return g, p
}

// E5-steady: K repeated demands served by one reusable Scheduler handle
// (handle construction outside the timed region, only the K Runs inside)
// versus K fresh Broadcast calls that each rebuild per-tree adjacency,
// FIFOs, and bitmasks. Both run the identical (demand, seed) sequence,
// so ns/op divides by the same K demands.
func BenchmarkE5SteadyBroadcastEdge(b *testing.B) {
	const K = 16
	setup := func(b *testing.B) (*decomp.Graph, *decomp.SpanningTreePacking, []decomp.Demand) {
		g, p := e5Packing(b)
		demands := make([]decomp.Demand, K)
		for k := range demands {
			demands[k] = decomp.Demand{Sources: decomp.UniformSources(g.N(), 4*g.N(), uint64(10+k))}
		}
		return g, p, demands
	}
	b.Run("reused", func(b *testing.B) {
		g, p, demands := setup(b)
		s, err := decomp.NewEdgeBroadcastScheduler(g, p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var throughput float64
		for i := 0; i < b.N; i++ {
			for k, d := range demands {
				res, err := s.Run(d, uint64(k))
				if err != nil {
					b.Fatal(err)
				}
				throughput = res.Throughput
			}
		}
		b.ReportMetric(K, "demands/op")
		b.ReportMetric(throughput, "msgs/round")
	})
	b.Run("fresh", func(b *testing.B) {
		g, p, demands := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		var throughput float64
		for i := 0; i < b.N; i++ {
			for k, d := range demands {
				res, err := decomp.BroadcastEdges(g, p, d.Sources, uint64(k))
				if err != nil {
					b.Fatal(err)
				}
				throughput = res.Throughput
			}
		}
		b.ReportMetric(K, "demands/op")
		b.ReportMetric(throughput, "msgs/round")
	})
}

// BenchmarkBroadcastDeck times warm Scheduler.Run over the eight
// decompositions perfbench's broadcast workload serves: K16, K32, Q8
// and RandomHamCycles(256,16), each packed once with default options,
// dominating (V-CONGEST) and spanning (E-CONGEST). The spanning packings
// of Q8 and RHC(256,16) hold hundreds to thousands of trees, so their
// per-tree tables leave the caches that E5's K16 tables never leave.
// Each decomposition serves 16 demands whose sizes are log-uniform in
// [16, 2048], one per stratum, with fixed sources and seeds, so every
// iteration repeats the same pass; each handle runs its demands once
// before the timer starts. Reports the pass's summed rounds, which two
// builds that schedule identically share.
func BenchmarkBroadcastDeck(b *testing.B) {
	const demandsPer, minMsgs, maxMsgs = 16, 16, 2048
	graphs := []*graph.Graph{
		graph.Complete(16), graph.Complete(32), graph.Hypercube(8),
		graph.RandomHamCycles(256, 16, ds.NewRand(1)),
	}
	for _, model := range []sim.Model{sim.VCongest, sim.ECongest} {
		type served struct {
			s       *cast.Scheduler
			demands []cast.Demand
		}
		var deck []served
		rng := ds.NewRand(2)
		for _, g := range graphs {
			var trees []graph.WeightedTree
			if model == sim.VCongest {
				p, err := cds.Pack(g, cds.Options{})
				if err != nil {
					b.Fatal(err)
				}
				trees = p.Trees
			} else {
				p, err := stp.Pack(g, stp.Options{})
				if err != nil {
					b.Fatal(err)
				}
				trees = p.Trees
			}
			s, err := cast.NewScheduler(g, trees, model)
			if err != nil {
				b.Fatal(err)
			}
			sv := served{s: s, demands: make([]cast.Demand, demandsPer)}
			for k := range sv.demands {
				u := (float64(k) + rng.Float64()) / demandsPer
				msgs := int(minMsgs * math.Pow(float64(maxMsgs+1)/minMsgs, u))
				sv.demands[k] = cast.UniformDemand(g.N(), max(minMsgs, min(maxMsgs, msgs)), rng)
			}
			deck = append(deck, sv)
		}
		pass := func() (rounds int) {
			for _, sv := range deck {
				for k, d := range sv.demands {
					res, err := sv.s.Run(d, uint64(k))
					if err != nil {
						b.Fatal(err)
					}
					rounds += res.Rounds
				}
			}
			return rounds
		}
		b.Run(model.String(), func(b *testing.B) {
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds = pass()
			}
			b.ReportMetric(float64(rounds), "rounds-sum")
		})
	}
}

// E7-faulted: seeded edge failures over the E5 decomposition from 0 up
// to (and past) the connectivity bound λ=15, measuring delivered
// fraction (≈1.0 below the bound, graceful degradation beyond) and the
// round overhead the surviving-tree reroute pass pays for it. The
// scheduler handle is built outside the timed region; each iteration is
// one faulted demand run per seed.
func BenchmarkE7FaultedBroadcast(b *testing.B) {
	const seeds = 8
	for _, kills := range []int{0, 5, 10, 15, 40, 80} {
		b.Run(fmt.Sprintf("kill%d", kills), func(b *testing.B) {
			g, p := e5Packing(b)
			s, err := decomp.NewEdgeBroadcastScheduler(g, p)
			if err != nil {
				b.Fatal(err)
			}
			d := decomp.Demand{Sources: decomp.UniformSources(g.N(), 4*g.N(), 3)}
			// Healthy round baseline for the same demand sequence,
			// outside the timed region.
			healthy := make([]int, seeds)
			for i := range healthy {
				res, err := s.Run(d, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				healthy[i] = res.Rounds
			}
			b.ResetTimer()
			var fraction, overhead, retries float64
			for i := 0; i < b.N; i++ {
				fraction, overhead, retries = 0, 0, 0
				for seed := uint64(0); seed < seeds; seed++ {
					plan := decomp.FaultPlan{Round: 1, RandomEdges: kills, Seed: 100 + seed, MaxRetries: 2}
					res, err := s.RunFaulted(d, seed, plan)
					if err != nil {
						b.Fatal(err)
					}
					fraction += res.DeliveredFraction
					overhead += float64(res.Rounds) / float64(healthy[seed])
					retries += float64(res.Retries)
				}
			}
			// Means over the fixed seed set, so the reported metrics
			// are independent of b.N.
			b.ReportMetric(fraction/seeds, "delivered-fraction")
			b.ReportMetric(overhead/seeds, "round-overhead")
			b.ReportMetric(retries/seeds, "retries")
			b.ReportMetric(seeds, "demands/op")
		})
	}
}

// --- E6: Corollary 1.6 — oblivious routing congestion ---------------------

func BenchmarkE6ObliviousCongestion(b *testing.B) {
	g := graph.Hypercube(6)
	const k = 6
	p, err := decomp.PackDominatingTrees(g, decomp.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	nMsgs := 6 * g.N()
	var competitiveness float64
	for i := 0; i < b.N; i++ {
		srcs := decomp.UniformSources(g.N(), nMsgs, uint64(i))
		res, err := decomp.Broadcast(g, p, srcs, uint64(i)+99)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			competitiveness = float64(res.MaxVertexCongestion) / (float64(nMsgs) / k)
		}
	}
	b.ReportMetric(competitiveness, "vertex-congestion-competitiveness")
}

// --- E7: Corollary 1.7 — vertex connectivity approximation ----------------

func BenchmarkE7VertexConnApprox(b *testing.B) {
	h10, err := graph.Harary(10, 128)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Q6", graph.Hypercube(6)},
		{"H10_128", h10},
	} {
		kappa := flow.VertexConnectivity(tc.g)
		b.Run(tc.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				est, _, err := cds.ApproxVertexConnectivity(tc.g, cds.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					ratio = float64(kappa) / est
				}
			}
			b.ReportMetric(ratio, "approx-ratio")
		})
	}
}

func BenchmarkE7VertexConnExactBaseline(b *testing.B) {
	g := graph.Hypercube(6)
	for i := 0; i < b.N; i++ {
		if flow.VertexConnectivity(g) != 6 {
			b.Fatal("wrong κ")
		}
	}
}

// --- E8: Corollary A.1 — gossiping ----------------------------------------

func BenchmarkE8Gossip(b *testing.B) {
	g := graph.RandomHamCycles(128, 12, ds.NewRand(3))
	p, err := decomp.PackDominatingTrees(g, decomp.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	var rounds float64
	for i := 0; i < b.N; i++ {
		res, err := decomp.Gossip(g, p, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rounds = float64(res.Rounds)
		}
	}
	b.ReportMetric(rounds, "rounds")
}

// --- E9: Lemma E.1 — packing tester ----------------------------------------

func BenchmarkE9Tester(b *testing.B) {
	g := graph.Hypercube(6)
	p, err := cds.Pack(g, cds.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	classOf := check.ClassesOf(g.N(), p.Trees)
	b.Run("centralized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := tester.CheckCentralized(g, classOf, len(p.Trees))
			if err != nil || !res.OK {
				b.Fatalf("err=%v ok=%v", err, res.OK)
			}
		}
	})
	b.Run("distributed", func(b *testing.B) {
		var rounds float64
		for i := 0; i < b.N; i++ {
			res, err := tester.CheckDistributed(g, classOf, len(p.Trees))
			if err != nil || !res.OK {
				b.Fatalf("err=%v ok=%v", err, res.OK)
			}
			if i == 0 {
				rounds = float64(res.Meter.TotalRounds())
			}
		}
		b.ReportMetric(rounds, "rounds")
	})
}

// --- E10: Appendix G — lower-bound family ----------------------------------

func BenchmarkE10LowerBound(b *testing.B) {
	var kappa4, kappaW float64
	for i := 0; i < b.N; i++ {
		inter, err := lower.Build(lower.Params{H: 4, L: 2, W: 5}, []int{0, 2}, []int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		disj, err := lower.Build(lower.Params{H: 4, L: 2, W: 5}, []int{0, 2}, []int{1, 3})
		if err != nil {
			b.Fatal(err)
		}
		kappa4 = float64(flow.VertexConnectivity(inter.G))
		kappaW = float64(flow.VertexConnectivity(disj.G))
	}
	b.ReportMetric(kappa4, "kappa-intersecting")
	b.ReportMetric(kappaW, "kappa-disjoint")
}

// --- Ablations (A1–A5 of README's experiment index) -------------------------

// A1: matching order in the centralized packer is randomized; compare
// the packing size spread across a fixed seed set, packed once per op
// (Luby-style stages live in the distributed path, exercised by E1).
func BenchmarkA1MatchingSeeds(b *testing.B) {
	const seeds = 4
	g := graph.Hypercube(6)
	var minSize, maxSize float64
	for i := 0; i < b.N; i++ {
		minSize, maxSize = math.Inf(1), 0
		for seed := uint64(0); seed < seeds; seed++ {
			p, err := cds.PackWithGuess(g, 24, cds.Options{Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			minSize = math.Min(minSize, p.Size())
			maxSize = math.Max(maxSize, p.Size())
		}
	}
	b.ReportMetric(minSize, "min-size")
	b.ReportMetric(maxSize, "max-size")
	b.ReportMetric(seeds, "packs/op")
}

// A2: jump-start depth — L/4 vs L/2 vs 3L/4 random layers.
func BenchmarkA2JumpStart(b *testing.B) {
	g := graph.Hypercube(6)
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		b.Run(fmt.Sprintf("frac%.2f", frac), func(b *testing.B) {
			var size, valid float64
			for i := 0; i < b.N; i++ {
				p, err := cds.PackWithGuess(g, 24, cds.Options{Seed: uint64(i), JumpStartFraction: frac})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					size = p.Size()
					valid = float64(p.Stats.ValidClasses)
				}
			}
			b.ReportMetric(size, "packing-size")
			b.ReportMetric(valid, "valid-classes")
		})
	}
}

// A3: MWU ε — iterations-to-converge and final size.
func BenchmarkA3MWUParams(b *testing.B) {
	g := graph.Complete(16)
	for _, eps := range []float64{0.05, 0.1, 0.3} {
		b.Run(fmt.Sprintf("eps%.2f", eps), func(b *testing.B) {
			var iters, size float64
			for i := 0; i < b.N; i++ {
				p, err := stp.Pack(g, stp.Options{Seed: uint64(i), KnownLambda: 15, Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					iters = float64(p.Stats.Iterations)
					size = p.Size()
				}
			}
			b.ReportMetric(iters, "iterations")
			b.ReportMetric(size, "packing-size")
		})
	}
}

// A4: with vs without Karger edge-sampling at large λ.
func BenchmarkA4Sampling(b *testing.B) {
	g := graph.Complete(32) // λ=31
	for _, tc := range []struct {
		name      string
		threshold float64
	}{
		{"sampled", 0.4},
		{"direct", 1e9},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var size, eta float64
			for i := 0; i < b.N; i++ {
				p, err := stp.Pack(g, stp.Options{
					Seed: uint64(i), KnownLambda: 31, Epsilon: 0.3,
					SampleThreshold: tc.threshold,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					size = p.Size()
					eta = float64(p.Stats.Subgraphs)
				}
			}
			b.ReportMetric(size, "packing-size")
			b.ReportMetric(eta, "subgraphs")
		})
	}
}

// A5: component identification cost — restricted flooding rounds on
// low- vs high-diameter component structures.
func BenchmarkA5Components(b *testing.B) {
	chain, err := graph.CliqueChain(8, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"expander", graph.RandomHamCycles(64, 3, ds.NewRand(1)), 6},
		{"cliquechain", chain, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				res, err := cdsdist.PackWithGuess(tc.g, tc.k, cds.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					rounds = float64(res.Meter.TotalRounds())
				}
			}
			b.ReportMetric(rounds, "rounds")
		})
	}
}
