package cdsdist

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cds"
	"repro/internal/graph"
)

func TestPackWithGuessValidation(t *testing.T) {
	g := graph.Complete(4)
	if _, err := PackWithGuess(g, 0, cds.Options{Seed: 1}); err == nil {
		t.Fatal("guess 0 accepted")
	}
	if _, err := PackWithGuess(graph.NewBuilder(0).Graph(), 1, cds.Options{Seed: 1}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestDistributedSingleClass(t *testing.T) {
	g := graph.Cycle(12)
	res, err := PackWithGuess(g, 1, cds.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Packing
	if p.Stats.Classes != 1 || p.Stats.ValidClasses != 1 {
		t.Fatalf("classes=%d valid=%d, want 1/1", p.Stats.Classes, p.Stats.ValidClasses)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.Meter.TotalRounds() == 0 || res.Meter.Messages == 0 {
		t.Fatalf("meter empty: %+v", res.Meter)
	}
}

func TestDistributedPackingHypercube(t *testing.T) {
	g := graph.Hypercube(5) // n=32, k=5
	res, err := PackWithGuess(g, 5, cds.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Packing
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.Stats.ValidClasses != p.Stats.Classes {
		t.Fatalf("only %d/%d classes valid on Q5", p.Stats.ValidClasses, p.Stats.Classes)
	}
	if p.Size() <= 0 {
		t.Fatal("empty packing")
	}
	// Whitney-style sanity: packing size cannot exceed κ = 5.
	if p.Size() > 5+1e-9 {
		t.Fatalf("size %.3f exceeds κ=5", p.Size())
	}
}

func TestDistributedMatchesCentralizedQuality(t *testing.T) {
	// The distributed and centralized algorithms implement the same
	// construction; with the same options their packing sizes should be
	// within a factor ~2 of each other on a well-connected graph.
	g := graph.Hypercube(6)
	distRes, err := PackWithGuess(g, 6, cds.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cenRes, err := cds.PackWithGuess(g, 6, cds.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ds, cs := distRes.Packing.Size(), cenRes.Size()
	if ds <= 0 || cs <= 0 {
		t.Fatalf("sizes: dist=%.3f cen=%.3f", ds, cs)
	}
	if ds < cs/3 || ds > cs*3 {
		t.Fatalf("distributed size %.3f far from centralized %.3f", ds, cs)
	}
}

func TestDistributedConvergenceTrace(t *testing.T) {
	g := graph.Hypercube(5)
	res, err := PackWithGuess(g, 5, cds.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Packing.Stats.ExcessComponents
	if len(trace) == 0 {
		t.Fatal("no convergence trace")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1] {
			t.Fatalf("M_ell increased at %d: %v", i, trace)
		}
	}
}

func TestDistributedTreeMembersMatchClasses(t *testing.T) {
	g := graph.Torus(4, 8) // k=4
	res, err := PackWithGuess(g, 4, cds.Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Packing.Trees {
		c := res.Packing.TreeClass[i]
		members := res.Packing.Classes[c]
		if len(members) != tr.Tree.Size() {
			t.Fatalf("class %d has %d members but tree has %d vertices",
				c, len(members), tr.Tree.Size())
		}
		for _, v := range members {
			if !tr.Tree.Contains(int(v)) {
				t.Fatalf("class %d member %d missing from tree", c, v)
			}
		}
	}
}

func TestDistributedPackTryAndError(t *testing.T) {
	g := graph.Hypercube(4) // n=16, k=4: small enough for the full loop
	res, err := Pack(g, cds.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Packing.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.Packing.Size() > 4+1e-9 {
		t.Fatalf("size %.3f exceeds κ=4", res.Packing.Size())
	}
	if res.Meter.TotalRounds() == 0 {
		t.Fatal("try-and-error metered zero rounds")
	}
}

func TestDistributedRoundsScaleReasonably(t *testing.T) {
	// Theorem 1.1 claims O~(min{D+sqrt(n), n/k}) rounds. At these sizes
	// polylog factors dominate; assert the meter stays under a generous
	// polylog envelope rather than the asymptotic constant.
	g := graph.Hypercube(5)
	res, err := PackWithGuess(g, 5, cds.Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.N())
	envelope := (math.Sqrt(n) + float64(graph.Diameter(g))) * math.Pow(math.Log2(n+2), 4) * 10
	if float64(res.Meter.TotalRounds()) > envelope {
		t.Fatalf("rounds %d exceed envelope %.0f", res.Meter.TotalRounds(), envelope)
	}
}

func TestDistributedDeterministicForSeed(t *testing.T) {
	g := graph.Hypercube(4)
	r1, err := PackWithGuess(g, 4, cds.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := PackWithGuess(g, 4, cds.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Packing.Size() != r2.Packing.Size() {
		t.Fatalf("same seed diverged: %.4f vs %.4f", r1.Packing.Size(), r2.Packing.Size())
	}
	if r1.Meter != r2.Meter {
		t.Fatalf("meters diverged: %+v vs %+v", r1.Meter, r2.Meter)
	}
}

// TestExcessComponentsGolden pins the M_ell trace (Stats.
// ExcessComponents) of PackWithGuess, which no FINGERPRINT line
// covers. Guesses n and 2n give enough classes that the jump start
// leaves classes split, so the traces are not all zero.
func TestExcessComponentsGolden(t *testing.T) {
	q5, t48 := graph.Hypercube(5), graph.Torus(4, 8)
	cases := []struct {
		name  string
		g     *graph.Graph
		guess int
		seed  uint64
		want  []int
	}{
		{"Q5", q5, 32, 0, []int{2, 0, 0, 0, 0, 0}},
		{"Q5", q5, 32, 1, []int{3, 0, 0, 0, 0, 0}},
		{"Q5", q5, 32, 2, []int{1, 0, 0, 0, 0, 0}},
		{"Q5", q5, 64, 0, []int{31, 16, 12, 6, 1, 1}},
		{"Q5", q5, 64, 1, []int{39, 17, 9, 3, 3, 3}},
		{"Q5", q5, 64, 2, []int{37, 12, 6, 3, 2, 0}},
		{"T4x8", t48, 32, 0, []int{4, 0, 0, 0, 0, 0}},
		{"T4x8", t48, 32, 1, []int{5, 2, 1, 0, 0, 0}},
		{"T4x8", t48, 32, 2, []int{8, 2, 2, 2, 1, 1}},
		{"T4x8", t48, 64, 0, []int{69, 42, 24, 15, 11, 5}},
		{"T4x8", t48, 64, 1, []int{71, 34, 23, 13, 12, 6}},
		{"T4x8", t48, 64, 2, []int{71, 47, 29, 22, 12, 8}},
	}
	for _, tc := range cases {
		res, err := PackWithGuess(tc.g, tc.guess, cds.Options{Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Packing.Stats.ExcessComponents; !slices.Equal(got, tc.want) {
			t.Errorf("%s guess=%d seed=%d: M_ell trace %v, want %v", tc.name, tc.guess, tc.seed, got, tc.want)
		}
	}
}
