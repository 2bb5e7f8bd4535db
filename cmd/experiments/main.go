// Command experiments runs the full claimed-vs-measured suite of
// README's experiment index (E1–E10) and prints one table per
// experiment.
//
// Usage: experiments [-quick] [-only E3]
package main

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	decomp "repro"
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

var (
	quick = flag.Bool("quick", false, "smaller sweeps")
	only  = flag.String("only", "", "run only the named experiment (e.g. E3)")
)

func main() {
	flag.Parse()
	experiments := []struct {
		id  string
		fn  func()
		why string
	}{
		{"E1", e1, "Thm 1.1: distributed dominating-tree packing"},
		{"E2", e2, "Thm 1.2: centralized O~(m) packing scaling"},
		{"E3", e3, "Thm 1.3: spanning-tree packing"},
		{"E4", e4, "Cor 1.4: V-CONGEST broadcast throughput"},
		{"E5", e5, "Cor 1.5: E-CONGEST broadcast throughput"},
		{"E6", e6, "Cor 1.6: oblivious routing congestion"},
		{"E7", e7, "Cor 1.7: vertex connectivity approximation"},
		{"E8", e8, "Cor A.1: gossiping"},
		{"E9", e9, "Lemma E.1: packing tester"},
		{"E10", e10, "App G: lower-bound family"},
	}
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		fmt.Printf("\n## %s — %s\n\n", e.id, e.why)
		e.fn()
	}
}

func hypercubes() []int {
	if *quick {
		return []int{4, 5}
	}
	return []int{4, 5, 6, 7}
}

// E1: Theorem 1.1 — distributed fractional dominating-tree packing,
// including the Remark 3.1 try-and-error loop with the Appendix E tester.
func e1() {
	fmt.Printf("%-10s %6s %6s %8s %8s %10s %10s %12s %10s\n",
		"graph", "n", "k", "size", "k/size", "maxMember", "height", "rounds", "D+√n·lg⁴")
	for _, d := range hypercubes() {
		g := graph.Hypercube(d)
		res, err := cdsdist.Pack(g, cds.Options{Seed: 7})
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		p := res.Packing
		n := float64(g.N())
		envelope := (float64(d) + math.Sqrt(n)) * math.Pow(math.Log2(n), 4)
		fmt.Printf("%-10s %6d %6d %8.3f %8.2f %10d %10d %12d %10.0f\n",
			fmt.Sprintf("Q%d", d), g.N(), d, p.Size(), float64(d)/p.Size(),
			p.MaxTreeCount(g.N()), p.MaxTreeHeight(), res.Meter.TotalRounds(), envelope)
	}
	fmt.Println("\nclaims: size=Ω(k/log n) [k/size=O(log n)], membership O(log n),")
	fmt.Println("tree diameter O~(n/k), rounds O~(min{D+√n, n/k}).")
}

// E2: Theorem 1.2 — centralized packing, runtime scaling with m.
func e2() {
	fmt.Printf("%-12s %8s %8s %8s %10s %10s %12s\n", "graph", "n", "m", "size", "valid", "ms", "ms/(m·lg²n)")
	sizes := []int{5, 6, 7, 8}
	if !*quick {
		sizes = append(sizes, 9, 10)
	}
	for _, d := range sizes {
		g := graph.Hypercube(d)
		t0 := time.Now()
		p, err := cds.Pack(g, cds.Options{Seed: 7})
		ms := time.Since(t0).Seconds() * 1000
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		logn := math.Log2(float64(g.N()) + 2)
		fmt.Printf("%-12s %8d %8d %8.3f %6d/%-3d %10.1f %12.5f\n",
			fmt.Sprintf("Q%d", d), g.N(), g.M(), p.Size(),
			p.Stats.ValidClasses, p.Stats.Classes, ms,
			ms/(float64(g.M())*logn*logn))
	}
	fmt.Println("\nclaim: O~(m) time — the normalized column ms/(m·log²n) should stay")
	fmt.Println("roughly flat as m grows (the try-and-error loop adds its log-factor).")
}

// E3: Theorem 1.3 — spanning-tree packing size vs ⌈(λ-1)/2⌉.
func e3() {
	type row struct {
		name   string
		g      *graph.Graph
		lambda int
	}
	rows := []row{
		{"C12", graph.Cycle(12), 2},
		{"Q4", graph.Hypercube(4), 4},
		{"Q6", graph.Hypercube(6), 6},
		{"K16", graph.Complete(16), 15},
		{"K32", graph.Complete(32), 31},
	}
	if *quick {
		rows = rows[:3]
	}
	fmt.Printf("%-8s %4s %10s %8s %10s %10s %10s\n",
		"graph", "λ", "⌈(λ-1)/2⌉", "size", "size/bnd", "edgeTrees", "iters")
	for _, r := range rows {
		p, err := stp.Pack(r.g, stp.Options{Seed: 3, KnownLambda: r.lambda})
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		bound := float64(ceilHalf(r.lambda - 1))
		if bound < 1 {
			bound = 1
		}
		fmt.Printf("%-8s %4d %10.0f %8.3f %10.3f %10d %10d\n",
			r.name, r.lambda, bound, p.Size(), p.Size()/bound,
			p.MaxEdgeTreeCount(r.g), p.Stats.Iterations)
	}
	// Distributed run on a small instance.
	g := graph.Hypercube(4)
	res, err := stpdist.Pack(g, stp.Options{Seed: 3, KnownLambda: 4, Epsilon: 0.2})
	if err == nil {
		fmt.Printf("\ndistributed (Q4): size=%.3f rounds=%d messages=%d\n",
			res.Packing.Size(), res.Meter.TotalRounds(), res.Meter.Messages)
	}
	fmt.Println("\nclaims: size = ⌈(λ-1)/2⌉(1-ε); edge membership O(log³n);")
	fmt.Println("distributed rounds O~(D+√(nλ)).")
}

// E4: Corollary 1.4 — broadcast throughput vs the single-tree baseline.
func e4() {
	fmt.Printf("%-14s %4s %8s %10s %10s %10s %10s\n",
		"graph", "k", "pack sz", "pack rds", "tree rds", "speedup", "Ω(k/lg n)")
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"Q6", graph.Hypercube(6), 6},
		{"Q7", graph.Hypercube(7), 7},
		{"Ham16_256", graph.RandomHamCycles(256, 16, ds.NewRand(2)), 30},
	}
	if *quick {
		cases = cases[:2]
	}
	for _, c := range cases {
		p, err := decomp.PackDominatingTrees(c.g, decomp.WithSeed(11))
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		srcs := decomp.UniformSources(c.g.N(), 4*c.g.N(), 13)
		multi, err := decomp.Broadcast(c.g, p, srcs, 17)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		single, err := decomp.SingleTreeBroadcast(c.g, srcs, decomp.VCongest, 17)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		fmt.Printf("%-14s %4d %8.2f %10d %10d %10.2f %10.2f\n",
			c.name, c.k, p.Size(), multi.Rounds, single.Rounds,
			float64(single.Rounds)/float64(multi.Rounds),
			float64(c.k)/math.Log2(float64(c.g.N())+2))
	}
	fmt.Println("\nclaim: throughput Ω(k/log n) msgs/round (single tree: <=1);")
	fmt.Println("crossover: for k below ~log n the packing size is ~1 and the")
	fmt.Println("two strategies tie — visible on low-k rows and in E8.")
}

// E5: Corollary 1.5 — E-CONGEST broadcast via spanning trees.
func e5() {
	fmt.Printf("%-8s %4s %10s %10s %10s %10s\n", "graph", "λ", "pack sz", "pack rds", "tree rds", "speedup")
	for _, c := range []struct {
		name string
		g    *graph.Graph
		l    int
	}{
		{"K16", graph.Complete(16), 15},
		{"Q5", graph.Hypercube(5), 5},
	} {
		p, err := decomp.PackSpanningTrees(c.g, decomp.WithSeed(19), decomp.WithKnownConnectivity(c.l))
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		srcs := decomp.UniformSources(c.g.N(), 4*c.g.N(), 23)
		multi, err := decomp.BroadcastEdges(c.g, p, srcs, 29)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		single, err := decomp.SingleTreeBroadcast(c.g, srcs, decomp.ECongest, 29)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		fmt.Printf("%-8s %4d %10.2f %10d %10d %10.2f\n",
			c.name, c.l, p.Size(), multi.Rounds, single.Rounds,
			float64(single.Rounds)/float64(multi.Rounds))
	}
	fmt.Println("\nclaim: throughput ⌈(λ-1)/2⌉(1-ε) msgs/round.")
}

// E6: Corollary 1.6 — oblivious routing congestion competitiveness.
func e6() {
	fmt.Printf("%-8s %4s %8s %14s %12s %12s\n",
		"graph", "k", "N", "maxNodeCong", "opt N/k", "competit.")
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"Q5", graph.Hypercube(5), 5},
		{"Q6", graph.Hypercube(6), 6},
	} {
		p, err := decomp.PackDominatingTrees(c.g, decomp.WithSeed(31))
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		nMsgs := 6 * c.g.N()
		srcs := decomp.UniformSources(c.g.N(), nMsgs, 37)
		res, err := decomp.Broadcast(c.g, p, srcs, 41)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		opt := float64(nMsgs) / float64(c.k)
		fmt.Printf("%-8s %4d %8d %14d %12.1f %12.2f\n",
			c.name, c.k, nMsgs, res.MaxVertexCongestion, opt,
			float64(res.MaxVertexCongestion)/opt)
	}
	fmt.Println("\nclaim: vertex-congestion competitiveness O(log n) — note any")
	fmt.Println("point-to-point oblivious routing is Ω(√n)-competitive [24].")
}

// E7: Corollary 1.7 — vertex connectivity approximation.
func e7() {
	h10, _ := graph.Harary(10, 128)
	fmt.Printf("%-14s %6s %10s %8s %10s\n", "graph", "κ", "estimate", "ratio", "10·lg n")
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Q6", graph.Hypercube(6)},
		{"H10_128", h10},
		{"Torus10", graph.Torus(10, 10)},
		{"K24", graph.Complete(24)},
	} {
		kappa := flow.VertexConnectivity(c.g)
		est, _, err := cds.ApproxVertexConnectivity(c.g, cds.Options{Seed: 43})
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		fmt.Printf("%-14s %6d %10.3f %8.2f %10.1f\n",
			c.name, kappa, est, float64(kappa)/est, 10*math.Log2(float64(c.g.N())+2))
	}
	fmt.Println("\nclaim: estimate ∈ [Ω(κ/log n), κ] — the ratio column stays O(log n).")
}

// E8: Corollary A.1 — gossiping rounds.
func e8() {
	fmt.Printf("%-14s %4s %10s %12s %14s\n", "graph", "k", "rounds", "singleTree", "η+(N+n)/k·lg²")
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"Q6", graph.Hypercube(6), 6},
		{"Torus8", graph.Torus(8, 8), 4},
		{"Ham12_128", graph.RandomHamCycles(128, 12, ds.NewRand(3)), 22},
	} {
		p, err := decomp.PackDominatingTrees(c.g, decomp.WithSeed(47))
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		res, err := decomp.Gossip(c.g, p, 53)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		all := make([]int, c.g.N())
		for i := range all {
			all[i] = i
		}
		single, err := decomp.SingleTreeBroadcast(c.g, all, decomp.VCongest, 53)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		n := float64(c.g.N())
		bound := (1 + 2*n/float64(c.k)) * math.Log2(n+2) * math.Log2(n+2)
		fmt.Printf("%-14s %4d %10d %12d %14.0f\n",
			c.name, c.k, res.Rounds, single.Rounds, bound)
	}
	fmt.Println("\nclaim: O~(η + (N+n)/k) rounds; single tree needs Θ(N+D).")
}

// E9: Lemma E.1 — the packing tester.
func e9() {
	g := graph.Hypercube(6)
	p, _ := cds.Pack(g, cds.Options{Seed: 59})
	classOf := check.ClassesOf(g.N(), p.Trees)
	res, err := tester.CheckDistributed(g, classOf, len(p.Trees))
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	budget := tester.MaxRoundsBudget(g)
	fmt.Printf("valid packing:    OK=%v classes=%d rounds=%d metered=%d (budget O~(min{d',D+√n})=%d, metered/budget %.2f)\n",
		res.OK, len(p.Trees), res.Meter.TotalRounds(), res.Meter.MeteredRounds, budget, float64(res.Meter.MeteredRounds)/float64(budget))
	// Sabotage: replace class 0 with Q6's even-weight vertices. No two
	// are adjacent, and every odd vertex has an even neighbor, so the
	// class still dominates but is split: domination passes and the
	// connectivity check must reject it.
	for v := 0; v < g.N(); v++ {
		kept := slices.DeleteFunc(classOf[v], func(c int32) bool { return c == 0 })
		if bits.OnesCount(uint(v))%2 == 0 {
			kept = slices.Insert(kept, 0, 0)
		}
		classOf[v] = kept
	}
	res2, err := tester.CheckDistributed(g, classOf, len(p.Trees))
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	fmt.Printf("sabotaged packing: OK=%v (domFail=%d connFail=%d)\n",
		res2.OK, res2.DominationFailures, res2.ConnectivityFailures)
	fmt.Println("\nclaim: valid packings pass; broken ones are rejected w.h.p.")
}

// E10: Appendix G — the lower-bound construction.
func e10() {
	fmt.Printf("%-22s %6s %6s %10s %10s %6s\n", "instance", "n", "w", "κ (G4)", "κ exact", "diam")
	for _, c := range []struct {
		name string
		x, y []int
		w    int
	}{
		{"X∩Y={2}", []int{0, 2}, []int{1, 2}, 6},
		{"X∩Y=∅", []int{0, 2}, []int{1, 3}, 6},
	} {
		inst, err := lower.Build(lower.Params{H: 4, L: 2, W: c.w}, c.x, c.y)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		predict, _ := inst.MinCutUpper()
		exact := flow.VertexConnectivity(inst.G)
		fmt.Printf("%-22s %6d %6d %10d %10d %6d\n",
			c.name, inst.G.N(), c.w, predict, exact, graph.Diameter(inst.G))
	}
	// Cut-bit metering of a live protocol (the distributed tester's
	// component flood) on an intersecting instance.
	inst, err := lower.Build(lower.Params{H: 6, L: 3, W: 3}, []int{0, 3}, []int{1, 3})
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	procs := make([]sim.Process, inst.G.N())
	for v := range procs {
		procs[v] = &floodProc{}
	}
	bits, meter, err := inst.CutBits(procs, sim.VCongest, 4*inst.G.N())
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	fmt.Printf("\ncut-bit meter (min-id flood): %d bits crossed a↔b in %d rounds "+
		"(Lemma G.6 budget 2BT≈%d); disjointness needs Ω(h)=%d bits\n",
		bits, meter.RawRounds, 2*40*meter.RawRounds, lower.DisjointnessBitsLowerBound(6))
	fmt.Println("\nclaim (Lemma G.4): κ=4 iff |X∩Y|=1, κ>=w if disjoint; diameter<=3.")
}

// floodProc is a min-id flood used as the metered protocol in E10.
type floodProc struct {
	min     int64
	started bool
	dirty   bool
}

func (p *floodProc) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	if !p.started {
		p.started = true
		p.min = int64(ctx.ID())
		p.dirty = true
	}
	for d := range inbox.All() {
		if d.Msg.F[0] < p.min {
			p.min = d.Msg.F[0]
			p.dirty = true
		}
	}
	if p.dirty {
		p.dirty = false
		ctx.Broadcast(sim.Msg(1, p.min))
		return sim.Active
	}
	return sim.Done
}

func ceilHalf(x int) int {
	if x <= 0 {
		return 0
	}
	return (x + 1) / 2
}
