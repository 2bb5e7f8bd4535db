package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// minFlood is the canonical test protocol: every node learns the
// minimum id in its connected component by flooding.
type minFlood struct {
	min     int64
	started bool
	dirty   bool
}

func (p *minFlood) Round(ctx *Context, inbox []Delivery) Status {
	if !p.started {
		p.started = true
		p.min = int64(ctx.ID())
		p.dirty = true
	}
	for _, d := range inbox {
		if d.Msg.F[0] < p.min {
			p.min = d.Msg.F[0]
			p.dirty = true
		}
	}
	if p.dirty {
		p.dirty = false
		ctx.Broadcast(Msg(1, p.min))
		return Active
	}
	return Done
}

func newMinFloodProcs(n int) ([]Process, []*minFlood) {
	procs := make([]Process, n)
	states := make([]*minFlood, n)
	for i := range procs {
		s := &minFlood{}
		states[i] = s
		procs[i] = s
	}
	return procs, states
}

func TestMinFloodPath(t *testing.T) {
	g := graph.Path(8)
	procs, states := newMinFloodProcs(g.N())
	e, err := NewEngine(g, VCongest, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunPhase(100); err != nil {
		t.Fatal(err)
	}
	for i, s := range states {
		if s.min != 0 {
			t.Fatalf("node %d learned min %d, want 0", i, s.min)
		}
	}
	// Information travels one hop per round: at least 7 rounds on P8.
	if e.Meter().RawRounds < 7 {
		t.Fatalf("RawRounds = %d, want >= 7 on P8", e.Meter().RawRounds)
	}
	if e.Meter().MeteredRounds < e.Meter().RawRounds {
		t.Fatal("metered rounds below raw rounds")
	}
}

func TestMinFloodDisconnected(t *testing.T) {
	g := graph.FromEdgeList(5, [][2]int{{0, 1}, {2, 3}}) // 4 isolated
	procs, states := newMinFloodProcs(g.N())
	e, err := NewEngine(g, VCongest, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunPhase(50); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 2, 2, 4}
	for i, s := range states {
		if s.min != want[i] {
			t.Fatalf("node %d min = %d, want %d", i, s.min, want[i])
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.Hypercube(4)
	run := func() ([]int64, Meter) {
		procs := make([]Process, g.N())
		states := make([]*randomGossip, g.N())
		for i := range procs {
			s := &randomGossip{}
			states[i] = s
			procs[i] = s
		}
		e, err := NewEngine(g, VCongest, procs, 99)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunPhase(100); err != nil {
			t.Fatal(err)
		}
		out := make([]int64, g.N())
		for i, s := range states {
			out[i] = s.sum
		}
		return out, *e.Meter()
	}
	out1, m1 := run()
	out2, m2 := run()
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("node %d state differs across identical runs: %d vs %d", i, out1[i], out2[i])
		}
	}
	if m1 != m2 {
		t.Fatalf("meters differ across identical runs: %+v vs %+v", m1, m2)
	}
}

// randomGossip broadcasts a random value for 5 rounds and sums what it
// hears — exercises per-node RNG determinism across runs.
type randomGossip struct {
	round int
	sum   int64
}

func (p *randomGossip) Round(ctx *Context, inbox []Delivery) Status {
	for _, d := range inbox {
		p.sum += d.Msg.F[0]
	}
	if p.round < 5 {
		p.round++
		ctx.Broadcast(Msg(1, int64(ctx.Rand().IntN(1000))))
		return Active
	}
	return Done
}

// slotHog broadcasts `slots` messages in round 0 from node 0 only.
type slotHog struct {
	slots int
	sent  bool
}

func (p *slotHog) Round(ctx *Context, inbox []Delivery) Status {
	if ctx.ID() == 0 && !p.sent {
		p.sent = true
		for i := 0; i < p.slots; i++ {
			ctx.Broadcast(Msg(1, int64(i)))
		}
		return Active
	}
	return Done
}

func TestSlotSerializationCharge(t *testing.T) {
	g := graph.Complete(4)
	procs := make([]Process, g.N())
	for i := range procs {
		procs[i] = &slotHog{slots: 3}
	}
	e, err := NewEngine(g, VCongest, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunPhase(10); err != nil {
		t.Fatal(err)
	}
	// Round 0: node 0 uses 3 slots -> charged 3; remaining rounds 1 each.
	if got := e.Meter().MeteredRounds - e.Meter().RawRounds; got != 2 {
		t.Fatalf("slot surcharge = %d, want 2 (3 slots in one round)", got)
	}
}

type bigFieldSender struct{}

func (bigFieldSender) Round(ctx *Context, inbox []Delivery) Status {
	ctx.Broadcast(Msg(1, 1<<62))
	return Active
}

func TestFieldBitBudgetEnforced(t *testing.T) {
	g := graph.Path(4)
	procs := make([]Process, g.N())
	for i := range procs {
		procs[i] = bigFieldSender{}
	}
	e, err := NewEngine(g, VCongest, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = e.RunPhase(5)
	if err == nil || !strings.Contains(err.Error(), "bits") {
		t.Fatalf("oversized field not rejected: %v", err)
	}
}

type illegalSender struct{}

func (illegalSender) Round(ctx *Context, inbox []Delivery) Status {
	ctx.Send(0, Msg(1, 7))
	return Active
}

func TestSendIllegalInVCongest(t *testing.T) {
	g := graph.Path(3)
	procs := []Process{illegalSender{}, illegalSender{}, illegalSender{}}
	e, err := NewEngine(g, VCongest, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = e.RunPhase(5)
	if err == nil || !strings.Contains(err.Error(), "illegal") {
		t.Fatalf("Send in V-CONGEST not rejected: %v", err)
	}
}

// edgePing: node 0 sends distinct values to each neighbor (E-CONGEST),
// neighbors record them.
type edgePing struct {
	sent bool
	got  int64
}

func (p *edgePing) Round(ctx *Context, inbox []Delivery) Status {
	for _, d := range inbox {
		p.got = d.Msg.F[0]
	}
	if ctx.ID() == 0 && !p.sent {
		p.sent = true
		for i := range ctx.Neighbors() {
			ctx.Send(i, Msg(1, int64(100+i)))
		}
		return Active
	}
	return Done
}

func TestECongestDistinctPerEdgeMessages(t *testing.T) {
	g := graph.FromEdgeList(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	procs := make([]Process, 4)
	states := make([]*edgePing, 4)
	for i := range procs {
		s := &edgePing{}
		states[i] = s
		procs[i] = s
	}
	e, err := NewEngine(g, ECongest, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunPhase(10); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if states[i].got != int64(100+i-1) {
			t.Fatalf("node %d got %d, want %d", i, states[i].got, 100+i-1)
		}
	}
	// Distinct edges: one slot each, no serialization surcharge.
	if e.Meter().MeteredRounds != e.Meter().RawRounds {
		t.Fatalf("unexpected surcharge: metered=%d raw=%d", e.Meter().MeteredRounds, e.Meter().RawRounds)
	}
}

// doubleSend sends two messages over the same edge in one round.
type doubleSend struct{ sent bool }

func (p *doubleSend) Round(ctx *Context, inbox []Delivery) Status {
	if ctx.ID() == 0 && !p.sent {
		p.sent = true
		ctx.Send(0, Msg(1, 1))
		ctx.Send(0, Msg(1, 2))
		return Active
	}
	return Done
}

func TestECongestPerEdgeSlotSurcharge(t *testing.T) {
	g := graph.Path(2)
	e, err := NewEngine(g, ECongest, []Process{&doubleSend{}, &doubleSend{}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunPhase(10); err != nil {
		t.Fatal(err)
	}
	if got := e.Meter().MeteredRounds - e.Meter().RawRounds; got != 1 {
		t.Fatalf("per-edge surcharge = %d, want 1", got)
	}
}

type neverDone struct{}

func (neverDone) Round(ctx *Context, inbox []Delivery) Status { return Active }

func TestRunPhaseTimeout(t *testing.T) {
	g := graph.Path(2)
	e, err := NewEngine(g, VCongest, []Process{neverDone{}, neverDone{}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunPhase(7); err == nil {
		t.Fatal("non-converging phase did not error")
	}
	if e.Meter().RawRounds != 7 {
		t.Fatalf("RawRounds = %d, want 7", e.Meter().RawRounds)
	}
}

func TestNewEngineValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewEngine(g, VCongest, make([]Process, 2), 1); err == nil {
		t.Fatal("process count mismatch accepted")
	}
	if _, err := NewEngine(g, Model(9), make([]Process, 3), 1); err == nil {
		t.Fatal("bogus model accepted")
	}
}

func TestMessageBitSize(t *testing.T) {
	if got := Msg(1).BitSize(); got != 8 {
		t.Fatalf("empty message BitSize = %d, want 8", got)
	}
	if got := Msg(1, 1).BitSize(); got != 10 { // 8 + (1 bit + sign)
		t.Fatalf("BitSize = %d, want 10", got)
	}
	if a, b := Msg(1, -5).BitSize(), Msg(1, 5).BitSize(); a != b {
		t.Fatalf("sign asymmetry: %d vs %d", a, b)
	}
}

func TestMeterCharge(t *testing.T) {
	var m Meter
	m.MeteredRounds = 10
	m.Charge(5)
	if m.TotalRounds() != 15 {
		t.Fatalf("TotalRounds = %d, want 15", m.TotalRounds())
	}
}

func TestModelString(t *testing.T) {
	if VCongest.String() != "V-CONGEST" || ECongest.String() != "E-CONGEST" {
		t.Fatal("model names wrong")
	}
	if !strings.Contains(Model(42).String(), "42") {
		t.Fatal("unknown model string should include the value")
	}
}

func TestMultiPhaseCarryover(t *testing.T) {
	// Phase 1: node 0 broadcasts then everyone Done; phase 2: neighbors
	// must see the message (carryover across the phase boundary).
	g := graph.Path(2)
	s0 := &phaseProbe{id: 0}
	s1 := &phaseProbe{id: 1}
	e, err := NewEngine(g, VCongest, []Process{s0, s1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunPhase(5); err != nil {
		t.Fatal(err)
	}
	s0.phase, s1.phase = 1, 1
	if err := e.RunPhase(5); err != nil {
		t.Fatal(err)
	}
	if !s1.sawCarryover {
		t.Fatal("message sent in final round of phase 1 was not delivered in phase 2")
	}
}

type phaseProbe struct {
	id           int
	phase        int
	sent         bool
	sawCarryover bool
}

func (p *phaseProbe) Round(ctx *Context, inbox []Delivery) Status {
	if p.phase == 0 {
		if p.id == 0 && !p.sent {
			p.sent = true
			ctx.Broadcast(Msg(7, 42))
			// Deliberately ends the phase while a message is in flight
			// (send+Done), to pin down the engine's carryover behavior.
		}
		return Done
	}
	for _, d := range inbox {
		if d.Msg.Kind == 7 && d.Msg.F[0] == 42 {
			p.sawCarryover = true
		}
	}
	return Done
}

// burstProc sends a seeded burst for `limit` rounds, then stops: 0–3
// broadcasts and, when sends is set (E-CONGEST), 0–3 directed sends to
// random neighbours, repeats allowed so one edge direction can carry
// several slots. It logs every delivery it receives, in order.
type burstProc struct {
	limit int
	sends bool
	round int
	got   []Delivery
}

func (p *burstProc) Round(ctx *Context, inbox []Delivery) Status {
	p.got = append(p.got, inbox...)
	if p.round >= p.limit {
		return Done
	}
	p.round++
	r := ctx.Rand()
	for i := r.IntN(4); i > 0; i-- {
		ctx.Broadcast(Msg(1, int64(ctx.ID()), int64(r.IntN(1000))))
	}
	if p.sends {
		for i := r.IntN(4); i > 0; i-- {
			ctx.Send(r.IntN(ctx.Degree()), Msg(2, int64(r.IntN(1000))))
		}
	}
	return Active
}

// TestDeliveryObserverParity pins what WithDeliveryObserver may and may
// not change, under both models: an observed run has the same meter and
// the same per-node deliveries (sender, slot and message, in order) as
// an unobserved one, and the observer is called once per delivered copy
// with its receiver and its bit size.
func TestDeliveryObserverParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Q4", graph.Hypercube(4)},
		{"K7", graph.Complete(7)},
		{"T3x5", graph.Torus(3, 5)},
	} {
		for _, model := range []Model{VCongest, ECongest} {
			n := tc.g.N()
			run := func(opts ...Option) (Meter, []*burstProc) {
				nodes := make([]*burstProc, n)
				procs := make([]Process, n)
				for i := range procs {
					nodes[i] = &burstProc{limit: 6, sends: model == ECongest}
					procs[i] = nodes[i]
				}
				e, err := NewEngine(tc.g, model, procs, 5, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunPhase(20); err != nil {
					t.Fatal(err)
				}
				return *e.Meter(), nodes
			}
			calls := make([]int, n)
			bits := make([]int, n)
			plain, plainNodes := run()
			observed, obsNodes := run(WithDeliveryObserver(func(from, to int32, b int) {
				calls[to]++
				bits[to] += b
			}))
			if plain != observed {
				t.Fatalf("%s %v: observed meter %+v, unobserved %+v", tc.name, model, observed, plain)
			}
			copies := 0
			for v := 0; v < n; v++ {
				got := obsNodes[v].got
				if !slices.Equal(got, plainNodes[v].got) {
					t.Fatalf("%s %v: node %d received %v observed, %v unobserved", tc.name, model, v, got, plainNodes[v].got)
				}
				sum := 0
				for _, d := range got {
					sum += d.Msg.BitSize()
				}
				if calls[v] != len(got) || bits[v] != sum {
					t.Fatalf("%s %v: node %d: observer saw %d copies of %d bits, node received %d of %d",
						tc.name, model, v, calls[v], bits[v], len(got), sum)
				}
				copies += len(got)
			}
			if copies == 0 {
				t.Fatalf("%s %v: no deliveries", tc.name, model)
			}
		}
	}
}
