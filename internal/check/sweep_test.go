package check_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cds"
	"repro/internal/cdsdist"
	"repro/internal/check"
	"repro/internal/ds"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/stp"
	"repro/internal/stpdist"
)

// The property sweep runs every packer over 5 graph families x 3 sizes
// x 4 seeds and asserts the paper's theorems as executable invariants:
// Theorem 1.1/1.2's packing-size floor and per-vertex capacity for the
// dominating-tree packers, Theorem 1.3's ⌊(λ-1)/2⌋·(1-6ε) floor and
// per-edge capacity for the spanning-tree packer. Families follow the
// canonical k-edge-connected decompositions the experiments use: exact
// ground-truth constructions (Harary, hypercube, torus, complete) plus
// the random 2c-connected Hamiltonian-cycle unions.
type sweepCase struct {
	name string
	g    *graph.Graph
	k    int // known vertex connectivity (= λ on these families)
}

func sweepCases(t testing.TB) []sweepCase {
	sizes := []int{0, 1, 2}
	if testing.Short() {
		sizes = sizes[:1]
	}
	var out []sweepCase
	add := func(name string, g *graph.Graph, k int) {
		out = append(out, sweepCase{name, g, k})
	}
	for _, i := range sizes {
		add(fmt.Sprintf("Hypercube/Q%d", i+4), graph.Hypercube(i+4), i+4)

		hn := 24 + 16*i
		h, err := graph.Harary(6, hn)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("Harary/H6_%d", hn), h, 6)

		cn := 32 + 16*i
		add(fmt.Sprintf("HamCycles/c3_%d", cn), graph.RandomHamCycles(cn, 3, ds.NewRand(uint64(cn))), 6)

		side := 4 + i
		add(fmt.Sprintf("Torus/%dx%d", side, side+1), graph.Torus(side, side+1), 4)

		kn := 12 + 4*i
		add(fmt.Sprintf("Complete/K%d", kn), graph.Complete(kn), kn-1)
	}
	return out
}

func sweepSeeds() []uint64 {
	if testing.Short() {
		return []uint64{0, 1}
	}
	return []uint64{0, 1, 2, 3}
}

// assertDominating runs the full Theorem 1.1/1.2 oracle on one packing:
// tree validity, domination, per-vertex capacity, the Ω(k/log n) size
// floor, the Lemma E.1 partition predicate, and — since a fractional
// dominating-tree packing with unit vertex capacities can load an edge
// through both endpoints — the paper's per-edge congestion ceiling of 2.
func assertDominating(t *testing.T, g *graph.Graph, p *cds.Packing, k int) {
	t.Helper()
	w := p.Trees
	if err := check.DominatingPacking(g, w, k); err != nil {
		t.Fatal(err)
	}
	if dom, conn := check.Partition(g, check.ClassesOf(g.N(), w), len(w)); dom != 0 || conn != 0 {
		t.Fatalf("partition failures: dom=%d conn=%d", dom, conn)
	}
	if load, e := check.EdgeCongestion(g, w); load > 2+1e-9 {
		u, v := g.Endpoints(e)
		t.Fatalf("edge (%d,%d) congestion %v exceeds 2", u, v, load)
	}
}

func TestSweepCentralizedDominating(t *testing.T) {
	for _, tc := range sweepCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range sweepSeeds() {
				p, err := cds.PackWithGuess(tc.g, tc.k, cds.Options{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				assertDominating(t, tc.g, p, tc.k)
			}
		})
	}
}

func TestSweepDistributedDominating(t *testing.T) {
	for _, tc := range sweepCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range sweepSeeds() {
				res, err := cdsdist.PackWithGuess(tc.g, tc.k, cds.Options{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				assertDominating(t, tc.g, res.Packing, tc.k)
				if res.Meter.TotalRounds() <= 0 {
					t.Fatalf("seed %d: distributed run metered no rounds", seed)
				}
			}
		})
	}
}

// The FullPack sweeps close the Remark 3.1 ROADMAP item: where the
// sweeps above pin PackWithGuess outcomes (connectivity known), these
// run the complete try-and-error loops — the guess search for the
// dominating packers, λ estimation for the spanning packers — over the
// same grid, asserting the theorem oracles on whatever guess the search
// settles on. The guess grid n/2^j lands within a factor 2 of the true
// k, so the dominating size floor is asserted at half the exact-guess
// strength; the Corollary 1.7 ceiling (no valid fractional packing
// exceeds k) is exact.
func assertDominatingFullPack(t *testing.T, g *graph.Graph, p *cds.Packing, k int) {
	t.Helper()
	w := p.Trees
	if err := check.DominatingPacking(g, w, 0); err != nil { // floor asserted below at half strength
		t.Fatal(err)
	}
	if size := p.Size(); size+1e-9 < check.DominatingFloor(k, g.N())/2 {
		t.Fatalf("full-Pack size %.4f below half the Theorem 1.1 floor %.4f (k=%d)", size, check.DominatingFloor(k, g.N()), k)
	} else if size > float64(k)+1e-9 {
		t.Fatalf("full-Pack size %.4f exceeds the Corollary 1.7 ceiling k=%d", size, k)
	}
	if dom, conn := check.Partition(g, check.ClassesOf(g.N(), w), len(w)); dom != 0 || conn != 0 {
		t.Fatalf("partition failures: dom=%d conn=%d", dom, conn)
	}
}

func TestSweepCentralizedDominatingFullPack(t *testing.T) {
	for _, tc := range sweepCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range sweepSeeds() {
				p, err := cds.Pack(tc.g, cds.Options{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				assertDominatingFullPack(t, tc.g, p, tc.k)
			}
		})
	}
}

func TestSweepDistributedDominatingFullPack(t *testing.T) {
	for _, tc := range sweepCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range sweepSeeds() {
				res, err := cdsdist.Pack(tc.g, cds.Options{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				assertDominatingFullPack(t, tc.g, res.Packing, tc.k)
				// The meter must include the Appendix E testing rounds of
				// every guess: strictly more than one PackWithGuess run.
				guess, err := cdsdist.PackWithGuess(tc.g, tc.k, cds.Options{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Meter.TotalRounds() <= guess.Meter.TotalRounds() {
					t.Fatalf("seed %d: full-Pack rounds %d do not cover guess-search + testing (single guess: %d)",
						seed, res.Meter.TotalRounds(), guess.Meter.TotalRounds())
				}
			}
		})
	}
}

// TestSweepSpanningFullPack runs stp.Pack without KnownLambda, so the
// Stoer–Wagner estimation path and (where λ clears the threshold) the
// Section 5.2 sampling split are both exercised under the Theorem 1.3
// oracle. ε=0.2 keeps the floor meaningful while the estimation stays
// the dominant cost.
func TestSweepSpanningFullPack(t *testing.T) {
	const epsilon = 0.2
	for _, tc := range sweepCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// tc.k is exact on the constructed families but only a w.h.p.
			// claim on the random Hamiltonian-cycle unions; the estimation
			// path must match the true λ, so pin against that.
			lambda := flow.StoerWagner(tc.g)
			for _, seed := range sweepSeeds() {
				p, err := stp.Pack(tc.g, stp.Options{Seed: seed, Epsilon: epsilon})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if p.Stats.Lambda != lambda {
					t.Fatalf("seed %d: estimated λ=%d, want %d", seed, p.Stats.Lambda, lambda)
				}
				if p.Stats.SubgraphsPacked < 1 || p.Stats.SubgraphsPacked > p.Stats.Subgraphs {
					t.Fatalf("seed %d: SubgraphsPacked=%d outside [1, η=%d]", seed, p.Stats.SubgraphsPacked, p.Stats.Subgraphs)
				}
				// The size floor scales with the packed fraction of the
				// sampled subgraphs (skipped samples pack nothing).
				floor := check.SpanningFloor(tc.k, epsilon) * float64(p.Stats.SubgraphsPacked) / float64(p.Stats.Subgraphs)
				if err := check.SpanningPacking(tc.g, p.Trees, 1, floor); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestSweepSpanningDistributed sweeps stpdist.Pack over the grid and
// additionally holds every run to the Theorem 1.3 round budget
// O~(D + sqrt(nλ)) — the distributed loop's cost contract.
func TestSweepSpanningDistributed(t *testing.T) {
	const epsilon = 0.3
	for _, tc := range sweepCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range sweepSeeds() {
				res, err := stpdist.Pack(tc.g, stp.Options{Seed: seed, KnownLambda: tc.k, Epsilon: epsilon})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				p := res.Packing
				if err := check.SpanningPacking(tc.g, p.Trees, 1, check.SpanningFloor(tc.k, epsilon)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				n := float64(tc.g.N())
				logn := math.Log2(n + 2)
				envelope := (float64(graph.Diameter(tc.g)) + math.Sqrt(n*float64(tc.k))) * logn * logn * logn * logn * 20
				if rounds := float64(res.Meter.TotalRounds()); rounds <= 0 || rounds > envelope {
					t.Fatalf("seed %d: %v metered rounds outside (0, %.0f]", seed, rounds, envelope)
				}
			}
		})
	}
}

func TestSweepSpanning(t *testing.T) {
	const epsilon = 0.2
	for _, tc := range sweepCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range sweepSeeds() {
				p, err := stp.Pack(tc.g, stp.Options{Seed: seed, KnownLambda: tc.k, Epsilon: epsilon})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// Unit edge capacities are the implementation's contract,
				// strictly stronger than the theorem's congestion-2 ceiling.
				if err := check.SpanningPacking(tc.g, p.Trees, 1, check.SpanningFloor(tc.k, epsilon)); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
