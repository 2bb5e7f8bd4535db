package tester

import (
	"slices"
	"testing"

	"repro/internal/cds"
	"repro/internal/check"
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
		// want pins CheckDistributed's whole Result at seed 5: the
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
				RawRounds: 14, MeteredRounds: 14, ChargedRounds: 6, Messages: 46, Bits: 430, Phases: 5}},
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
				RawRounds: 9, MeteredRounds: 9, ChargedRounds: 24, Messages: 40, Bits: 412, Phases: 3}},
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
		RawRounds: 161, MeteredRounds: 176, ChargedRounds: 170, Messages: 3000, Bits: 30804, Phases: 33}}
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
