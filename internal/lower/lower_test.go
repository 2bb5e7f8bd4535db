package lower

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Params{H: 1, L: 1, W: 1}, nil, nil); err == nil {
		t.Fatal("H=1 accepted")
	}
	if _, err := Build(Params{H: 4, L: 2, W: 1}, []int{7}, nil); err == nil {
		t.Fatal("out-of-range X element accepted")
	}
}

func TestLemmaG4DiameterAtMost3(t *testing.T) {
	inst, err := Build(Params{H: 4, L: 3, W: 2}, []int{0, 2}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := graph.Diameter(inst.G); d > 3 {
		t.Fatalf("diameter %d > 3", d)
	}
	if !graph.IsConnected(inst.G) {
		t.Fatal("instance disconnected")
	}
}

func TestLemmaG4IntersectingCase(t *testing.T) {
	// X∩Y = {2}: vertex connectivity exactly 4 = {a, b, u_2, v_2}.
	inst, err := Build(Params{H: 4, L: 2, W: 5}, []int{0, 2}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.MinCutUpper()
	if err != nil {
		t.Fatal(err)
	}
	if want != 4 {
		t.Fatalf("MinCutUpper = %d, want 4", want)
	}
	if got := flow.VertexConnectivity(inst.G); got != 4 {
		t.Fatalf("κ(G(X,Y)) = %d, want 4", got)
	}
}

func TestLemmaG4DisjointCase(t *testing.T) {
	// X∩Y = ∅: every vertex cut has size >= w.
	inst, err := Build(Params{H: 4, L: 2, W: 5}, []int{0, 2}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.MinCutUpper()
	if err != nil {
		t.Fatal(err)
	}
	if want != 5 {
		t.Fatalf("MinCutUpper = %d, want 5", want)
	}
	if got := flow.VertexConnectivity(inst.G); got < 5 {
		t.Fatalf("κ(G(X,Y)) = %d, want >= 5", got)
	}
}

func TestMinCutUpperRejectsBigIntersection(t *testing.T) {
	inst, err := Build(Params{H: 4, L: 2, W: 3}, []int{0, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.MinCutUpper(); err == nil {
		t.Fatal("|X∩Y|=2 accepted")
	}
}

func TestSidesPartitionReasonably(t *testing.T) {
	inst, err := Build(Params{H: 3, L: 2, W: 2}, []int{0}, []int{1}) // disjoint
	if err != nil {
		t.Fatal(err)
	}
	left, right, both := 0, 0, 0
	for v := 0; v < inst.G.N(); v++ {
		l, r := inst.LeftOf[v], inst.RightOf[v]
		if l && r {
			both++
		} else if l {
			left++
		} else if r {
			right++
		} else {
			t.Fatalf("vertex %d on neither side", v)
		}
	}
	if left == 0 || right == 0 || both == 0 {
		t.Fatalf("degenerate split: left=%d right=%d both=%d", left, right, both)
	}
}

// hubChatter: hubs broadcast for `rounds` rounds; used to verify the
// cut-bit meter counts exactly the hub traffic.
type hubChatter struct {
	isHub  bool
	rounds int
	sent   int
}

func (p *hubChatter) Round(ctx *sim.Context, inbox sim.Inbox) sim.Status {
	if p.isHub && p.sent < p.rounds {
		p.sent++
		ctx.Broadcast(sim.Msg(1, 5)) // 8 + 4 bits
		return sim.Active
	}
	return sim.Done
}

func TestCutBitsCountsHubTraffic(t *testing.T) {
	inst, err := Build(Params{H: 3, L: 2, W: 2}, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]sim.Process, inst.G.N())
	for v := range procs {
		procs[v] = &hubChatter{isHub: v == inst.A || v == inst.B, rounds: 3}
	}
	bits, meter, err := inst.CutBits(procs, sim.VCongest, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Two hubs x three rounds x 12 bits each.
	if bits != 2*3*12 {
		t.Fatalf("CutBits = %d, want 72", bits)
	}
	if meter.RawRounds == 0 {
		t.Fatal("no rounds metered")
	}
}

func TestCutBitsIgnoresNonHubTraffic(t *testing.T) {
	inst, err := Build(Params{H: 3, L: 2, W: 2}, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// Everyone EXCEPT the hubs chatters.
	procs := make([]sim.Process, inst.G.N())
	for v := range procs {
		procs[v] = &hubChatter{isHub: v != inst.A && v != inst.B, rounds: 2}
	}
	bits, _, err := inst.CutBits(procs, sim.VCongest, 20)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 0 {
		t.Fatalf("CutBits = %d, want 0 for non-hub traffic", bits)
	}
}

func TestDisjointnessBitsLowerBound(t *testing.T) {
	if DisjointnessBitsLowerBound(64) != 64 {
		t.Fatal("wrong bound")
	}
}
