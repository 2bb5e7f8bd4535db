package stp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ds"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/mst"
)

// TestKruskalOracleMatchesFullSortPerIteration gates the incremental
// hot path against the specification it replaced: at every MWU
// iteration, the union-find scan over the maintained (load, id) order
// must choose exactly the edges a from-scratch mst.Kruskal sort picks
// under the same loads and tie-break.
func TestKruskalOracleMatchesFullSortPerIteration(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		lambda int
	}{
		{"K10", graph.Complete(10), 9},
		{"Q4", graph.Hypercube(4), 4},
		{"Torus4x4", graph.Torus(4, 4), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Epsilon: 0.15}.normalize()
			checked := 0
			oracle := func(e *Engine) ([]int, int, error) {
				chosen, rounds, err := KruskalOracle(e)
				if err != nil {
					return chosen, rounds, err
				}
				x := e.Loads()
				want := mst.Kruskal(e.Graph(), func(id int) float64 { return x[id] })
				if len(chosen) != len(want) {
					t.Fatalf("iteration %d: %d chosen vs %d reference", e.Iterations(), len(chosen), len(want))
				}
				for i := range want {
					if chosen[i] != want[i] {
						t.Fatalf("iteration %d: chosen[%d] = %d, reference %d", e.Iterations(), i, chosen[i], want[i])
					}
				}
				checked++
				return chosen, rounds, nil
			}
			eng := NewEngine(tc.g, tc.lambda, opts, oracle)
			for iter := 0; iter < 400 && !eng.Done(); iter++ {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if checked < 10 {
				t.Fatalf("only %d iterations exercised", checked)
			}
			p := eng.Finish()
			if err := p.Validate(tc.g); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEngineMaxLoadMatchesScan pins the O(1) order-tail MaxLoad against
// the O(m) rescan it replaced.
func TestEngineMaxLoadMatchesScan(t *testing.T) {
	g := graph.Complete(12)
	opts := Options{Epsilon: 0.2}.normalize()
	eng := NewEngine(g, 11, opts, KruskalOracle)
	for iter := 0; iter < 150 && !eng.Done(); iter++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		maxZ := 0.0
		for _, x := range eng.Loads() {
			if z := x * float64(eng.HalfLambda()); z > maxZ {
				maxZ = z
			}
		}
		if got := eng.MaxLoad(); got != maxZ {
			t.Fatalf("iteration %d: MaxLoad() = %v, scan says %v", eng.Iterations(), got, maxZ)
		}
	}
}

// TestEngineDeduplicatesTrees checks the hashed signature path: packing
// a cycle (whose MWU loop revisits the same trees constantly) must
// produce distinct entries only, with weights aggregated.
func TestEngineDeduplicatesTrees(t *testing.T) {
	g := graph.Cycle(8)
	opts := Options{Epsilon: 0.1}.normalize()
	eng := NewEngine(g, 2, opts, KruskalOracle)
	for iter := 0; iter < 200 && !eng.Done(); iter++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Iterations() <= len(eng.entries) && eng.Iterations() > 8 {
		t.Fatalf("no deduplication: %d iterations, %d entries", eng.Iterations(), len(eng.entries))
	}
	seen := make(map[string]bool)
	for _, ent := range eng.entries {
		key := fmt.Sprint(slices.Sorted(slices.Values(ent.ids)))
		if seen[key] {
			t.Fatalf("duplicate tree entry %v", ent.ids)
		}
		seen[key] = true
	}
}

// TestShuffledOracleMatchesKruskal feeds the engine KruskalOracle's
// trees with their edge ids in a seeded shuffled order. The dedup hash
// and the tree builder ignore the order, so the packing must be
// identical to KruskalOracle's, dedup hits included.
func TestShuffledOracleMatchesKruskal(t *testing.T) {
	hits := 0
	for _, tc := range stopParityGraphs(t) {
		lambda := flow.EdgeConnectivity(tc.g)
		opts := Options{}.normalize()
		run := func(oracle MSTOracle) *Packing {
			eng := NewEngine(tc.g, lambda, opts, oracle)
			for iter, limit := 0, maxIters(tc.g.N(), opts.Epsilon); iter <= limit && !eng.Done(); iter++ {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			return eng.Finish()
		}
		want := run(KruskalOracle)
		rng := ds.NewRand(uint64(tc.g.M()))
		got := run(func(e *Engine) ([]int, int, error) {
			chosen, rounds, err := KruskalOracle(e)
			rng.Shuffle(len(chosen), func(i, j int) { chosen[i], chosen[j] = chosen[j], chosen[i] })
			return chosen, rounds, err
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shuffled oracle packed %d trees, stats %+v; Kruskal order %d trees, stats %+v",
				tc.name, len(got.Trees), got.Stats, len(want.Trees), want.Stats)
		}
		hits += want.Stats.DedupHits
	}
	if hits == 0 {
		t.Fatal("no pack folded a repeated tree, so dedup went untested")
	}
}

// TestDedupStampsSeparateHashCollisions files two different spanning
// trees of C4 under one sigIndex hash. Adding the second tree must
// create a new entry rather than fold into the first, and re-adding it
// in another edge order must fold into its own entry.
func TestDedupStampsSeparateHashCollisions(t *testing.T) {
	g := graph.Cycle(4)
	eng := NewEngine(g, 2, Options{}.normalize(), KruskalOracle)
	a, b := []int{0, 1, 2}, []int{1, 2, 3}
	if err := eng.addTree(a, 1); err != nil {
		t.Fatal(err)
	}
	// Collide: file entry 0 (tree a) under b's hash too.
	eng.sigIndex[edgeSetHash(b)] = []int32{0}
	if err := eng.addTree(b, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(eng.entries) != 2 || eng.dedupHits != 0 {
		t.Fatalf("tree b folded into tree a: %d entries, %d dedup hits", len(eng.entries), eng.dedupHits)
	}
	if got := eng.sigIndex[edgeSetHash(b)]; !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("b's hash lists entries %v, want [0 1]", got)
	}
	before := eng.entries[0].Weight
	if err := eng.addTree([]int{3, 1, 2}, 0.5); err != nil {
		t.Fatal(err)
	}
	if len(eng.entries) != 2 || eng.dedupHits != 1 {
		t.Fatalf("reordered tree b: %d entries, %d dedup hits, want 2 and 1", len(eng.entries), eng.dedupHits)
	}
	if w := eng.entries[0].Weight; w != before*0.5 {
		t.Fatalf("tree a's weight %v took the hit (want %v after rescaling only)", w, before*0.5)
	}
}

// fullStopDecision is the stop test without the prefix shortcut: the
// load check, then Cost(MST) > (1-ε)·Σ c_e·x_e with the sum taken over
// every edge in id order.
func fullStopDecision(e *Engine, chosen []int) bool {
	halfLamF := float64(e.halfLam)
	if e.MaxLoad() <= 1+2*e.eps {
		return true
	}
	cost, all := mst.NewLogSumExp(), mst.NewLogSumExp()
	for _, c := range chosen {
		cost.Add(e.alpha*e.x[c]*halfLamF, 1)
	}
	for _, x := range e.x {
		all.Add(e.alpha*(x*halfLamF), x)
	}
	return cost.GreaterThan(all, 1-e.eps)
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// stopParityGraphs are perfbench's 13 cold-pack families (unrelabelled)
// plus K16, K32 and C8.
func stopParityGraphs(t *testing.T) []namedGraph {
	t.Helper()
	out := []namedGraph{
		{"Q5", graph.Hypercube(5)}, {"Q6", graph.Hypercube(6)},
		{"Q7", graph.Hypercube(7)}, {"Q8", graph.Hypercube(8)},
		{"T8x8", graph.Torus(8, 8)}, {"T12x12", graph.Torus(12, 12)},
		{"T16x16", graph.Torus(16, 16)},
		{"K16", graph.Complete(16)}, {"K32", graph.Complete(32)}, {"C8", graph.Cycle(8)},
	}
	for _, h := range [][2]int{{6, 64}, {8, 112}, {10, 96}, {12, 160}} {
		g, err := graph.Harary(h[0], h[1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedGraph{fmt.Sprintf("H(%d,%d)", h[0], h[1]), g})
	}
	for _, c := range [][3]int{{8, 8, 4}, {6, 12, 6}} {
		g, err := graph.CliqueChain(c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedGraph{fmt.Sprintf("CC(%d,%d,%d)", c[0], c[1], c[2]), g})
	}
	return out
}

// TestStopDecisionMatchesFullEvaluation gates the heaviest-first stop
// test against the evaluation it short-cuts: at every MWU iteration of a
// full pack, the engine stops exactly when the full evaluation says so.
func TestStopDecisionMatchesFullEvaluation(t *testing.T) {
	iterations, skipped, exact := 0, 0, 0
	for _, tc := range stopParityGraphs(t) {
		lambda := flow.EdgeConnectivity(tc.g)
		for _, eps := range []float64{0.05, 0.1, 0.2, 0.4} {
			opts := Options{Epsilon: eps}.normalize()
			var want bool
			oracle := func(e *Engine) ([]int, int, error) {
				chosen, rounds, err := KruskalOracle(e)
				want = err == nil && fullStopDecision(e, chosen)
				return chosen, rounds, err
			}
			eng := NewEngine(tc.g, lambda, opts, oracle)
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			limit := maxIters(tc.g.N(), opts.Epsilon)
			for iter := 0; iter < limit && !eng.Done(); iter++ {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				if eng.Done() != want {
					t.Fatalf("%s ε=%v iteration %d: engine stopped = %v, full evaluation says %v",
						tc.name, eps, eng.Iterations(), eng.Done(), want)
				}
				iterations++
			}
			if !eng.Done() {
				t.Fatalf("%s ε=%v: no stop within %d iterations", tc.name, eps, limit)
			}
			skipped += eng.stopSkipped
			exact += eng.stopExact
		}
	}
	if skipped == 0 {
		t.Fatal("no stop test took the prefix shortcut")
	}
	t.Logf("%d iterations agree; %d prefix exits, %d full evaluations", iterations, skipped, exact)
}

// TestStopFallsBackToFullEvaluation drives the one path the packs above
// never reach: a prefix that runs out of edges. On C8 with every load
// 0.5 and λ = 20, Cost(MST) = 7·e^{5α} exceeds (1-ε)·Σ c_e·x_e =
// 3.6·e^{5α}, so no prefix clears and the full evaluation must stop.
func TestStopFallsBackToFullEvaluation(t *testing.T) {
	g := graph.Cycle(8)
	eng := NewEngine(g, 20, Options{Epsilon: 0.1}.normalize(), KruskalOracle)
	for i := range eng.x {
		eng.x[i] = 0.5
	}
	if !eng.shouldStop([]int{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatal("certificate did not fire")
	}
	if eng.stopExact != 1 || eng.stopSkipped != 0 {
		t.Fatalf("stopExact = %d, stopSkipped = %d, want 1 and 0", eng.stopExact, eng.stopSkipped)
	}
}
