package tester

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cds"
	"repro/internal/check"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

// singleClassAll returns a membership table putting every node in class 0.
func singleClassAll(n int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		out[i] = []int32{0}
	}
	return out
}

func TestCheckCentralizedValidSingleClass(t *testing.T) {
	g := graph.Cycle(8)
	res, err := CheckCentralized(g, singleClassAll(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("valid partition rejected: %+v", res)
	}
}

func TestCheckCentralizedDominationFailure(t *testing.T) {
	// Class 0 = {0} on a path: vertex 3+ is not dominated.
	g := graph.Path(5)
	classOf := make([][]int32, 5)
	classOf[0] = []int32{0}
	res, err := CheckCentralized(g, classOf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.DominationFailures == 0 {
		t.Fatalf("undominated partition accepted: %+v", res)
	}
}

func TestCheckCentralizedConnectivityFailure(t *testing.T) {
	// C6: class 0 = {0, 3} dominates (every node within 1 of {0,3}) but
	// is disconnected.
	g := graph.Cycle(6)
	classOf := make([][]int32, 6)
	classOf[0] = []int32{0}
	classOf[3] = []int32{0}
	res, err := CheckCentralized(g, classOf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("disconnected class accepted")
	}
	if res.ConnectivityFailures == 0 {
		t.Fatalf("no connectivity failure recorded: %+v", res)
	}
	if res.DominationFailures != 0 {
		t.Fatalf("spurious domination failure: %+v", res)
	}
}

func TestCheckCentralizedEmptyClass(t *testing.T) {
	g := graph.Complete(4)
	classOf := singleClassAll(4) // class 1 exists but is empty
	res, err := CheckCentralized(g, classOf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("empty class accepted")
	}
}

func TestCheckCentralizedValidatesLength(t *testing.T) {
	g := graph.Path(3)
	if _, err := CheckCentralized(g, make([][]int32, 2), 1); err == nil {
		t.Fatal("bad classOf length accepted")
	}
	if _, err := CheckDistributed(g, make([][]int32, 2), 1); err == nil {
		t.Fatal("bad classOf length accepted (distributed)")
	}
	// A class id outside [0, classes) is an error too.
	for _, bad := range []int32{-1, 2} {
		if _, err := CheckDistributed(g, [][]int32{{0}, {1, bad}, {0}}, 2); err == nil {
			t.Fatalf("class %d accepted with 2 classes (distributed)", bad)
		}
	}
}

func TestDistributedMatchesCentralizedOnCases(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		classOf func(n int) [][]int32
		classes int
		wantOK  bool
		// want pins CheckDistributed's whole Result: the
		// verdict, the failure counts and every meter field.
		want Result
	}{
		{
			name: "valid-two-classes-K8",
			g:    graph.Complete(8),
			classOf: func(n int) [][]int32 {
				out := make([][]int32, n)
				for i := range out {
					out[i] = []int32{int32(i % 2)}
				}
				return out
			},
			classes: 2,
			wantOK:  true,
			want: Result{OK: true, Meter: sim.Meter{
				RawRounds: 8, MeteredRounds: 9, ChargedRounds: 4, Messages: 46, Bits: 468, Phases: 3}},
		},
		{
			name:    "single-class-cycle",
			g:       graph.Cycle(9),
			classOf: singleClassAll,
			classes: 1,
			wantOK:  true,
			want: Result{OK: true, Meter: sim.Meter{
				RawRounds: 11, MeteredRounds: 11, ChargedRounds: 16, Messages: 56, Bits: 514, Phases: 3}},
		},
		{
			name: "undominated",
			g:    graph.Path(6),
			classOf: func(n int) [][]int32 {
				out := make([][]int32, n)
				out[0] = []int32{0}
				return out
			},
			classes: 1,
			wantOK:  false,
			want: Result{DominationFailures: 4, Meter: sim.Meter{
				RawRounds: 2, MeteredRounds: 2, ChargedRounds: 10, Messages: 1, Bits: 8, Phases: 1}},
		},
		{
			name: "disconnected-class-far-apart",
			g:    graph.Cycle(12),
			classOf: func(n int) [][]int32 {
				// {0,1,2} and {6,7,8}: dominating? vertex 4 has
				// neighbors 3,5 — not dominated; add 4 and 10 to keep
				// domination but with 4 pieces.
				out := make([][]int32, n)
				for _, v := range []int{0, 1, 2, 4, 6, 7, 8, 10} {
					out[v] = []int32{0}
				}
				return out
			},
			classes: 1,
			wantOK:  false,
			want: Result{ConnectivityFailures: 1, Meter: sim.Meter{
				RawRounds: 9, MeteredRounds: 9, ChargedRounds: 24, Messages: 42, Bits: 437, Phases: 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			classOf := tc.classOf(tc.g.N())
			cen, err := CheckCentralized(tc.g, classOf, tc.classes)
			if err != nil {
				t.Fatal(err)
			}
			dis, err := CheckDistributed(tc.g, classOf, tc.classes)
			if err != nil {
				t.Fatal(err)
			}
			if cen.OK != tc.wantOK {
				t.Fatalf("centralized OK=%v, want %v (%+v)", cen.OK, tc.wantOK, cen)
			}
			if dis.OK != tc.wantOK {
				t.Fatalf("distributed OK=%v, want %v (%+v)", dis.OK, tc.wantOK, dis)
			}
			if dis != tc.want {
				t.Fatalf("distributed result %+v, want %+v", dis, tc.want)
			}
		})
	}
}

func TestTesterAcceptsRealPacking(t *testing.T) {
	g := graph.Hypercube(5)
	p, err := cds.Pack(g, cds.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	classOf := make([][]int32, g.N())
	classes := 0
	for i, tr := range p.Trees {
		for _, v := range tr.Tree.Vertices() {
			classOf[v] = append(classOf[v], int32(i))
		}
		classes = i + 1
	}
	cen, err := CheckCentralized(g, classOf, classes)
	if err != nil {
		t.Fatal(err)
	}
	if !cen.OK {
		t.Fatalf("centralized test rejected a valid packing: %+v", cen)
	}
	dis, err := CheckDistributed(g, classOf, classes)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{OK: true, Meter: sim.Meter{
		RawRounds: 12, MeteredRounds: 142, ChargedRounds: 20, Messages: 3000, Bits: 40953, Phases: 3}}
	if dis != want {
		t.Fatalf("distributed result %+v, want %+v", dis, want)
	}
}

// TestTesterDetectsSabotagedPacking removes class 0 from the least
// vertex holding it and from all that vertex's neighbours, so that
// vertex has no class-0 member in its closed neighbourhood: both testers
// must reject the partition, the distributed one in its domination
// phase.
func TestTesterDetectsSabotagedPacking(t *testing.T) {
	g := graph.Hypercube(5)
	p, err := cds.Pack(g, cds.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Trees) == 0 {
		t.Fatal("empty packing")
	}
	classOf := make([][]int32, g.N())
	classes := len(p.Trees)
	for i, tr := range p.Trees {
		for _, v := range tr.Tree.Vertices() {
			classOf[v] = append(classOf[v], int32(i))
		}
	}
	victim := int(p.Trees[0].Tree.Vertices()[0])
	for _, v := range append([]int32{int32(victim)}, g.Neighbors(victim)...) {
		classOf[v] = slices.DeleteFunc(classOf[v], func(c int32) bool { return c == 0 })
	}

	cen, err := CheckCentralized(g, classOf, classes)
	if err != nil {
		t.Fatal(err)
	}
	if cen.OK || cen.DominationFailures == 0 {
		t.Fatalf("centralized test missed the undominated vertex %d: %+v", victim, cen)
	}
	dis, err := CheckDistributed(g, classOf, classes)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{DominationFailures: 1, Meter: sim.Meter{
		RawRounds: 2, MeteredRounds: 17, ChargedRounds: 10, Messages: 451, Bits: 5431, Phases: 1}}
	if dis != want {
		t.Fatalf("distributed result %+v, want %+v", dis, want)
	}
}

func TestMaxRoundsBudgetPositive(t *testing.T) {
	if b := MaxRoundsBudget(graph.Hypercube(4)); b <= 0 {
		t.Fatalf("budget = %d", b)
	}
}

// TestCheckerReuseMatchesOneShot runs one Checker over partitions of Q5
// with class counts that shrink and grow between calls, valid ones and
// failing ones, and requires every Result to equal CheckDistributed's
// on the same input: nothing one call leaves in the checker's engine,
// rows or flood runner reaches the next.
func TestCheckerReuseMatchesOneShot(t *testing.T) {
	g := graph.Hypercube(5)
	var partitions [][][]int32
	var counts []int
	for _, guess := range []int{1, 32, 4, 16, 2} {
		p, err := cds.PackWithGuess(g, guess, cds.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		classOf := check.ClassesOf(g.N(), p.Trees)
		partitions = append(partitions, classOf)
		counts = append(counts, p.Stats.Classes)
		if guess == 4 {
			// The same partition with node 0's closed neighbourhood
			// stripped of class 0: a domination failure.
			sabotaged := make([][]int32, len(classOf))
			for v := range classOf {
				sabotaged[v] = slices.Clone(classOf[v])
			}
			for _, v := range append([]int32{0}, g.Neighbors(0)...) {
				sabotaged[v] = slices.DeleteFunc(sabotaged[v], func(c int32) bool { return c == 0 })
			}
			partitions = append(partitions, sabotaged)
			counts = append(counts, p.Stats.Classes)
		}
	}
	c := NewChecker(g)
	oks := 0
	for i, classOf := range partitions {
		got, err := c.Check(classOf, counts[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := CheckDistributed(g, classOf, counts[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("call %d (%d classes): reused checker %+v, one-shot %+v", i, counts[i], got, want)
		}
		if got.OK {
			oks++
		}
	}
	if oks == 0 || oks == len(partitions) {
		t.Fatalf("%d of %d partitions passed; the sequence should mix passes and failures", oks, len(partitions))
	}
}

// splitClasses returns a copy of the partition classOf in which k
// classes, drawn by rng, are replaced by dominating sets of two or more
// components: a maximal independent set, grown vertex by vertex while
// it stays disconnected. A replaced class is appended to its members'
// lists, which then no longer ascend.
func splitClasses(g *graph.Graph, classOf [][]int32, classes, k int, rng *rand.Rand) [][]int32 {
	out := make([][]int32, len(classOf))
	for v := range classOf {
		out[v] = slices.Clone(classOf[v])
	}
	for split, c := range rng.Perm(classes)[:k] {
		cl := int32(c)
		holds := func(v int32) bool { return slices.Contains(out[v], cl) }
		for v := range out {
			out[v] = slices.DeleteFunc(out[v], func(x int32) bool { return x == cl })
		}
		order := rng.Perm(len(out))
		for _, v := range order {
			if !slices.ContainsFunc(g.Neighbors(v), holds) {
				out[v] = append(out[v], cl)
			}
		}
		for _, v := range order {
			if holds(int32(v)) {
				continue
			}
			out[v] = append(out[v], cl)
			if _, conn := check.Partition(g, out, classes); conn <= split {
				out[v] = out[v][:len(out[v])-1] // it would join the components
			}
		}
	}
	return out
}

// TestDistributedVerdictsMatchCentralized sweeps Q5, T6×6, CC(4,8,4) and
// H(5,32) at four seeds: the valid partitions of cds.PackWithGuess's
// trees at guesses 8 and 16, each also with two or three classes split
// at once while every class still dominates (its class lists then no
// longer ascend), and a zero-vertex graph with two classes, which only
// the count of empty classes fails.
// CheckDistributed's verdict must equal CheckCentralized's, and so must
// its connectivity failures whenever domination passes.
func TestDistributedVerdictsMatchCentralized(t *testing.T) {
	compare := func(label string, g *graph.Graph, classOf [][]int32, classes int) Result {
		t.Helper()
		cen, err := CheckCentralized(g, classOf, classes)
		if err != nil {
			t.Fatal(err)
		}
		dis, err := CheckDistributed(g, classOf, classes)
		if err != nil {
			t.Fatal(err)
		}
		if dis.OK != cen.OK || (dis.DominationFailures == 0) != (cen.DominationFailures == 0) ||
			cen.DominationFailures == 0 && dis.ConnectivityFailures != cen.ConnectivityFailures {
			t.Errorf("%s, %d classes %v: distributed %+v, centralized %+v", label, classes, classOf, dis, cen)
		}
		return dis
	}
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Q5", graph.Hypercube(5)},
		{"T6x6", graph.Torus(6, 6)},
		{"CC(4,8,4)", must(graph.CliqueChain(4, 8, 4))},
		{"H(5,32)", must(graph.Harary(5, 32))},
	} {
		splits := 0
		for seed := uint64(0); seed < 4; seed++ {
			for _, guess := range []int{8, 16} {
				p, err := cds.PackWithGuess(tc.g, guess, cds.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s seed %d guess %d", tc.name, seed, guess)
				classOf, classes := check.ClassesOf(tc.g.N(), p.Trees), len(p.Trees)
				if res := compare(label, tc.g, classOf, classes); !res.OK {
					t.Errorf("%s: valid trees failed: %+v", label, res)
				}
				if classes < 2 {
					continue
				}
				k := min(2+int(seed%2), classes)
				broken := splitClasses(tc.g, classOf, classes, k, ds.NewRand(seed))
				if dom, conn := check.Partition(tc.g, broken, classes); dom != 0 || conn != k {
					t.Fatalf("%s: splitting %d classes left %d domination and %d connectivity failures", label, k, dom, conn)
				}
				compare(fmt.Sprintf("%s, %d classes split", label, k), tc.g, broken, classes)
				splits++
			}
		}
		if splits == 0 {
			t.Errorf("%s: no partition with two classes split", tc.name)
		}
	}
	empty := compare("zero-vertex graph", graph.NewBuilder(0).Graph(), [][]int32{}, 2)
	if empty.OK || empty.ConnectivityFailures != 2 {
		t.Errorf("zero-vertex graph with 2 classes: %+v, want OK=false with 2 connectivity failures", empty)
	}
}
