package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/ds"
	"repro/internal/graph"
)

// minFlood is the canonical test protocol: every node learns the
// minimum id in its connected component by flooding.
type minFlood struct {
	min     int64
	started bool
	dirty   bool
}

func (p *minFlood) Round(ctx *Context, inbox Inbox) Status {
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
	e, err := NewEngine(g, VCongest, procs)
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
	e, err := NewEngine(g, VCongest, procs)
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
			s := &randomGossip{rng: ds.SplitRand(99, uint64(i))}
			states[i] = s
			procs[i] = s
		}
		e, err := NewEngine(g, VCongest, procs)
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

// randomGossip broadcasts a value drawn from its own stream for 5
// rounds and sums what it hears — exercises run determinism with
// per-node randomness.
type randomGossip struct {
	rng   *rand.Rand
	round int
	sum   int64
}

func (p *randomGossip) Round(ctx *Context, inbox Inbox) Status {
	for d := range inbox.All() {
		p.sum += d.Msg.F[0]
	}
	if p.round < 5 {
		p.round++
		ctx.Broadcast(Msg(1, int64(p.rng.IntN(1000))))
		return Active
	}
	return Done
}

// slotHog broadcasts `slots` messages in round 0 from node 0 only.
type slotHog struct {
	slots int
	sent  bool
}

func (p *slotHog) Round(ctx *Context, inbox Inbox) Status {
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
	e, err := NewEngine(g, VCongest, procs)
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

// fanSender broadcasts `count` messages (id, i+1) in its first round and
// logs every delivery it receives.
type fanSender struct {
	count int
	sent  bool
	got   []Delivery
}

func (p *fanSender) Round(ctx *Context, inbox Inbox) Status {
	p.got = slices.AppendSeq(p.got, inbox.All())
	if p.sent || p.count == 0 {
		return Done
	}
	p.sent = true
	for i := 0; i < p.count; i++ {
		ctx.Broadcast(Msg(1, int64(ctx.ID()), int64(i+1)))
	}
	return Active
}

// TestBroadcastMetering pins how each model meters local broadcasts on
// a star with an isolated vertex: nodes 0, 1 and 4 broadcast 1, 2 and 3
// messages in round 0. V-CONGEST charges every broadcast once and takes
// its slot count from every node, the isolated one included. E-CONGEST
// charges a broadcast once per incident edge and takes its slot count
// only from nodes that have an edge, so node 4's three slots cost
// nothing there.
func TestBroadcastMetering(t *testing.T) {
	g := graph.FromEdgeList(5, [][2]int{{0, 1}, {0, 2}, {0, 3}}) // 4 isolated
	for _, tc := range []struct {
		model           Model
		metered         int
		messages, nbits int64
	}{
		{VCongest, 4, 6, 79},
		{ECongest, 3, 5, 55},
	} {
		counts := []int{1, 2, 0, 0, 3}
		nodes := make([]*fanSender, g.N())
		procs := make([]Process, g.N())
		for i := range procs {
			nodes[i] = &fanSender{count: counts[i]}
			procs[i] = nodes[i]
		}
		e, err := NewEngine(g, tc.model, procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunPhase(5); err != nil {
			t.Fatal(err)
		}
		m := e.Meter()
		if m.RawRounds != 2 || m.MeteredRounds != tc.metered || m.Messages != tc.messages || m.Bits != tc.nbits {
			t.Fatalf("%v: raw %d metered %d messages %d bits %d, want raw 2 metered %d messages %d bits %d",
				tc.model, m.RawRounds, m.MeteredRounds, m.Messages, m.Bits, tc.metered, tc.messages, tc.nbits)
		}
		got := nodes[0].got
		if len(got) != 2 {
			t.Fatalf("%v: node 0 received %d messages, want node 1's 2", tc.model, len(got))
		}
		for i, d := range got {
			if want := Msg(1, 1, int64(i+1)); d.From != 1 || d.Msg != want {
				t.Fatalf("%v: node 0 delivery %d is %v from %d, want %v from 1", tc.model, i, d.Msg, d.From, want)
			}
		}
	}
}

type bigFieldSender struct{}

func (bigFieldSender) Round(ctx *Context, inbox Inbox) Status {
	ctx.Broadcast(Msg(1, 1<<62))
	return Active
}

func TestFieldBitBudgetEnforced(t *testing.T) {
	g := graph.Path(4)
	procs := make([]Process, g.N())
	for i := range procs {
		procs[i] = bigFieldSender{}
	}
	e, err := NewEngine(g, VCongest, procs)
	if err != nil {
		t.Fatal(err)
	}
	err = e.RunPhase(5)
	if err == nil || !strings.Contains(err.Error(), "bits") {
		t.Fatalf("oversized field not rejected: %v", err)
	}
}

// budgetProc logs its deliveries. In round 1 every node broadcasts a
// valid kind-1 message; in round 2 every node broadcasts a valid kind-2
// message, and the breaker two more whose fields exceed the budget.
type budgetProc struct {
	breaker bool
	rounds  int
	queued  int // the breaker's outbox length after its round-2 sends
	got     []Delivery
}

func (p *budgetProc) Round(ctx *Context, inbox Inbox) Status {
	p.got = slices.AppendSeq(p.got, inbox.All())
	p.rounds++
	switch p.rounds {
	case 1:
		ctx.Broadcast(Msg(1, int64(ctx.ID())))
	case 2:
		ctx.Broadcast(Msg(2, int64(ctx.ID())))
		if p.breaker {
			ctx.Broadcast(Msg(3, 1<<62))
			ctx.Broadcast(Msg(3, -1<<62))
			p.queued = len(ctx.out)
		}
	default:
		return Done
	}
	return Active
}

// TestFieldBudgetViolationDeliversNothing: a round aborted by a
// field-budget violation delivers none of its broadcasts, valid ones
// included; the meter holds only the rounds before it; a second
// RunPhase without Reset returns the same error without calling any
// Round; and Reset clears the violation.
func TestFieldBudgetViolationDeliversNothing(t *testing.T) {
	g := graph.Cycle(5)
	nodes := make([]*budgetProc, g.N())
	procs := make([]Process, g.N())
	for i := range procs {
		nodes[i] = &budgetProc{breaker: i == 0}
		procs[i] = nodes[i]
	}
	e, err := NewEngine(g, VCongest, procs)
	if err != nil {
		t.Fatal(err)
	}
	err = e.RunPhase(10)
	if err == nil || !strings.Contains(err.Error(), "bits") {
		t.Fatalf("over-budget broadcast not rejected: %v", err)
	}
	if nodes[0].queued != 1 {
		t.Fatalf("breaker's outbox held %d messages, want its one valid broadcast", nodes[0].queued)
	}
	if again := e.RunPhase(10); again != err {
		t.Fatalf("second RunPhase without Reset returned %v, want the violation %v", again, err)
	}
	for v, nd := range nodes {
		if nd.rounds != 2 {
			t.Fatalf("node %d ran %d rounds, want 2: the aborted phase must call no further Round", v, nd.rounds)
		}
		if len(nd.got) != g.Degree(v) {
			t.Fatalf("node %d received %v, want each neighbor's round-1 message once", v, nd.got)
		}
		for _, d := range nd.got {
			if d.Msg != Msg(1, int64(d.From)) {
				t.Fatalf("node %d received %v from %d, want only round-1 messages", v, d.Msg, d.From)
			}
		}
	}
	var wantBits int64
	for v := 0; v < g.N(); v++ {
		wantBits += int64(Msg(1, int64(v)).BitSize())
	}
	if m := e.Meter(); m.Messages != int64(g.N()) || m.Bits != wantBits {
		t.Fatalf("meter %+v, want the round-1 broadcasts alone: %d messages, %d bits", *m, g.N(), wantBits)
	}

	// Reset clears the violation: processes without a breaker run their
	// three rounds to completion on the same engine.
	for i := range procs {
		nodes[i] = &budgetProc{}
		procs[i] = nodes[i]
	}
	if err := e.Reset(procs); err != nil {
		t.Fatal(err)
	}
	if err := e.RunPhase(10); err != nil {
		t.Fatalf("RunPhase after Reset: %v", err)
	}
	for v, nd := range nodes {
		if nd.rounds != 3 {
			t.Fatalf("node %d ran %d rounds after Reset, want 3", v, nd.rounds)
		}
	}
}

// TestECongestPerEdgeSlotSurcharge: two broadcasts in one round put two
// messages on node 0's one edge, so the round is charged twice.
func TestECongestPerEdgeSlotSurcharge(t *testing.T) {
	g := graph.Path(2)
	e, err := NewEngine(g, ECongest, []Process{&slotHog{slots: 2}, &slotHog{slots: 2}})
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

func (neverDone) Round(ctx *Context, inbox Inbox) Status { return Active }

func TestRunPhaseTimeout(t *testing.T) {
	g := graph.Path(2)
	e, err := NewEngine(g, VCongest, []Process{neverDone{}, neverDone{}})
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
	if _, err := NewEngine(g, VCongest, make([]Process, 2)); err == nil {
		t.Fatal("process count mismatch accepted")
	}
	if _, err := NewEngine(g, Model(9), make([]Process, 3)); err == nil {
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
	e, err := NewEngine(g, VCongest, []Process{s0, s1})
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

func (p *phaseProbe) Round(ctx *Context, inbox Inbox) Status {
	if p.phase == 0 {
		if p.id == 0 && !p.sent {
			p.sent = true
			ctx.Broadcast(Msg(7, 42))
			// Deliberately ends the phase while a message is in flight
			// (send+Done), to pin down the engine's carryover behavior.
		}
		return Done
	}
	for d := range inbox.All() {
		if d.Msg.Kind == 7 && d.Msg.F[0] == 42 {
			p.sawCarryover = true
		}
	}
	return Done
}

// burstProc broadcasts a burst of 0–3 messages drawn from its own
// stream for `limit` rounds, then stops. It logs every delivery it
// receives, in order.
type burstProc struct {
	rng   *rand.Rand
	limit int
	round int
	got   []Delivery
}

func (p *burstProc) Round(ctx *Context, inbox Inbox) Status {
	p.got = slices.AppendSeq(p.got, inbox.All())
	if p.round >= p.limit {
		return Done
	}
	p.round++
	r := p.rng
	for i := r.IntN(4); i > 0; i-- {
		ctx.Broadcast(Msg(1, int64(ctx.ID()), int64(r.IntN(1000))))
	}
	return Active
}

// TestDeliveryObserverParity pins what WithDeliveryObserver may and may
// not change, under both models: an observed run has the same meter and
// the same per-node deliveries (sender and message, in order) as an
// unobserved one, and the observer is called once per delivered copy
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
					nodes[i] = &burstProc{rng: ds.SplitRand(5, uint64(i)), limit: 6}
					procs[i] = nodes[i]
				}
				e, err := NewEngine(tc.g, model, procs, opts...)
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

// orderProc logs, round by round, what it broadcasts and what it
// receives. While `left` bursts remain in the phase it broadcasts a
// burst of 0–3 messages per round, drawn from its own stream; with
// `carry` set, the phase's last burst returns Done, so the phase ends
// with that burst in flight.
type orderProc struct {
	rng   *rand.Rand
	run   int64 // tags every message with the run that sent it
	left  int
	carry bool
	sent  [][]Message  // per round
	got   [][]Delivery // per round
}

func (p *orderProc) Round(ctx *Context, inbox Inbox) Status {
	p.got = append(p.got, slices.Collect(inbox.All()))
	var out []Message
	if p.left > 0 {
		p.left--
		r := p.rng
		for i := r.IntN(4); i > 0; i-- {
			m := Msg(1, p.run, int64(ctx.ID()), int64(len(p.sent)), int64(r.IntN(1000)))
			ctx.Broadcast(m)
			out = append(out, m)
		}
	}
	p.sent = append(p.sent, out)
	if p.left > 0 || (len(out) > 0 && !p.carry) {
		return Active
	}
	return Done
}

// checkDeliveryOrder checks every round of one run: node v's inbox in
// round r is, over Neighbors(v) in ascending order, each neighbor's
// round r-1 broadcasts in send order, each on the port that is the
// sender's index in Neighbors(v); round 0's inbox is empty. It returns
// the number of deliveries checked.
func checkDeliveryOrder(t *testing.T, name string, g *graph.Graph, nodes []*orderProc) int {
	t.Helper()
	total := 0
	for v, nd := range nodes {
		for r, got := range nd.got {
			var want []Delivery
			if r > 0 {
				for port, u := range g.Neighbors(v) {
					for _, m := range nodes[u].sent[r-1] {
						want = append(want, Delivery{From: u, Port: int32(port), Msg: m})
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: node %d round %d received %v, want %v", name, v, r, got, want)
			}
			total += len(got)
		}
	}
	return total
}

// TestDeliveryOrder pins the order in which node v receives its
// neighbors' broadcasts, under both models: by sender in Neighbors(v)
// order and, per sender, in send order, with the sender's index in
// Neighbors(v) as the arrival port. The first run has two phases on one
// engine, each ending with a burst in flight: the second phase delivers
// the first's last burst in its first round. A Reset then starts a
// second run in which nothing from the first arrives.
func TestDeliveryOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Q4", graph.Hypercube(4)},
		{"K7", graph.Complete(7)},
		{"T3x5", graph.Torus(3, 5)},
	} {
		for _, model := range []Model{VCongest, ECongest} {
			name := fmt.Sprintf("%s %v", tc.name, model)
			n := tc.g.N()
			newRun := func(run int64, seed uint64, left int, carry bool) ([]*orderProc, []Process) {
				nodes := make([]*orderProc, n)
				procs := make([]Process, n)
				for i := range procs {
					nodes[i] = &orderProc{rng: ds.SplitRand(seed, uint64(i)), run: run, left: left, carry: carry}
					procs[i] = nodes[i]
				}
				return nodes, procs
			}
			first, procs := newRun(1, 7, 4, true)
			e, err := NewEngine(tc.g, model, procs)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RunPhase(20); err != nil {
				t.Fatal(err)
			}
			end := len(first[0].got) // the first round of phase two
			for _, nd := range first {
				nd.left = 3
			}
			if err := e.RunPhase(20); err != nil {
				t.Fatal(err)
			}
			if got := checkDeliveryOrder(t, name+" run 1", tc.g, first); got == 0 {
				t.Fatalf("%s: run 1 delivered nothing", name)
			}
			carried := 0
			for _, nd := range first {
				carried += len(nd.got[end])
			}
			if carried == 0 {
				t.Fatalf("%s: nothing carried over the phase boundary", name)
			}
			inFlight := 0
			for _, nd := range first {
				inFlight += len(nd.sent[len(nd.sent)-1])
			}
			if inFlight == 0 {
				t.Fatalf("%s: run 1 ended with nothing in flight", name)
			}

			second, procs := newRun(2, 8, 3, false)
			if err := e.Reset(procs); err != nil {
				t.Fatal(err)
			}
			if err := e.RunPhase(20); err != nil {
				t.Fatal(err)
			}
			if got := checkDeliveryOrder(t, name+" run 2", tc.g, second); got == 0 {
				t.Fatalf("%s: run 2 delivered nothing", name)
			}
		}
	}
}

// scriptProc logs the phase round of each of its calls and the
// deliveries of each. In the phase rounds listed in send it broadcasts
// (id, phase round); it returns Active through phase round activeUntil
// and Done after it.
type scriptProc struct {
	send        []int
	activeUntil int
	calls       []int
	got         [][]Delivery
}

func (p *scriptProc) Round(ctx *Context, inbox Inbox) Status {
	r := ctx.PhaseRound()
	p.calls = append(p.calls, r)
	p.got = append(p.got, slices.Collect(inbox.All()))
	if slices.Contains(p.send, r) {
		ctx.Broadcast(Msg(1, int64(ctx.ID()), int64(r)))
	}
	if r <= p.activeUntil {
		return Active
	}
	return Done
}

func scriptEngine(t *testing.T, g *graph.Graph, nodes []*scriptProc) *Engine {
	t.Helper()
	procs := make([]Process, len(nodes))
	for i, nd := range nodes {
		procs[i] = nd
	}
	e, err := NewEngine(g, VCongest, procs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDoneNodeWithoutDeliveriesIsSkipped pins the event-driven
// contract on P5: node 0 stays Active through round 3 and broadcasts in
// rounds 0 and 3, every other node returns Done at once. Node 1 is
// called in round 1 and round 4, where its deliveries arrive, and not
// in rounds 2 and 3, yet reads the true phase round when called again;
// nodes 2–4 hear nothing and are called only in round 0.
func TestDoneNodeWithoutDeliveriesIsSkipped(t *testing.T) {
	g := graph.Path(5)
	nodes := make([]*scriptProc, g.N())
	for i := range nodes {
		nodes[i] = &scriptProc{activeUntil: -1}
	}
	nodes[0] = &scriptProc{send: []int{0, 3}, activeUntil: 3}
	e := scriptEngine(t, g, nodes)
	if err := e.RunPhase(20); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2, 3, 4}, {0, 1, 4}, {0}, {0}, {0}}
	for v, nd := range nodes {
		if !slices.Equal(nd.calls, want[v]) {
			t.Fatalf("node %d called in phase rounds %v, want %v", v, nd.calls, want[v])
		}
	}
	wantGot := [][]Delivery{nil, {{From: 0, Port: 0, Msg: Msg(1, 0, 0)}}, {{From: 0, Port: 0, Msg: Msg(1, 0, 3)}}}
	if got := nodes[1].got; !slices.EqualFunc(got, wantGot, slices.Equal) {
		t.Fatalf("node 1 received %v, want %v", got, wantGot)
	}
	if m := e.Meter(); m.RawRounds != 5 || m.Messages != 2 {
		t.Fatalf("meter %+v, want 5 raw rounds and 2 messages", *m)
	}
}

// TestPhaseFirstRoundCallsEveryNode: the first round of every phase
// calls every node, those with no deliveries included, also when a
// message carries over from the previous phase.
func TestPhaseFirstRoundCallsEveryNode(t *testing.T) {
	g := graph.Path(5)
	nodes := make([]*scriptProc, g.N())
	for i := range nodes {
		nodes[i] = &scriptProc{activeUntil: -1}
	}
	// Node 0 broadcasts and returns Done in round 0, so the phase ends
	// with its message in flight.
	nodes[0].send = []int{0}
	e := scriptEngine(t, g, nodes)
	for phase := 0; phase < 2; phase++ {
		for _, nd := range nodes {
			nd.calls, nd.got = nil, nil
		}
		if err := e.RunPhase(20); err != nil {
			t.Fatal(err)
		}
		nodes[0].send = nil
		for v, nd := range nodes {
			if !slices.Equal(nd.calls, []int{0}) {
				t.Fatalf("phase %d: node %d called in phase rounds %v, want [0]", phase, v, nd.calls)
			}
		}
	}
	want := []Delivery{{From: 0, Port: 0, Msg: Msg(1, 0, 0)}}
	if got := nodes[1].got[0]; !slices.Equal(got, want) {
		t.Fatalf("node 1 received %v in the second phase's first round, want the carried %v", got, want)
	}
	if m := e.Meter(); m.RawRounds != 2 || m.Phases != 2 {
		t.Fatalf("meter %+v, want two one-round phases", *m)
	}
}

// TestSparseSendersAscendByPort: when only some neighbors broadcast,
// a node's deliveries still come in ascending port order, one sender
// per listed port, and no port without a broadcast appears.
func TestSparseSendersAscendByPort(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Complete(9), graph.Torus(3, 5), graph.Hypercube(4)} {
		const last = 3 // the last phase round with sends
		sends := func(u, r int) bool { return (7*u+r)%4 == 0 }
		nodes := make([]*scriptProc, g.N())
		for u := range nodes {
			nodes[u] = &scriptProc{activeUntil: last}
			for r := 0; r <= last; r++ {
				if sends(u, r) {
					nodes[u].send = append(nodes[u].send, r)
				}
			}
		}
		e := scriptEngine(t, g, nodes)
		if err := e.RunPhase(20); err != nil {
			t.Fatal(err)
		}
		sparse := false
		for v, nd := range nodes {
			if len(nd.got) != last+2 {
				t.Fatalf("node %d called %d times, want %d", v, len(nd.got), last+2)
			}
			for r := 1; r < len(nd.got); r++ {
				var want []Delivery
				for port, u := range g.Neighbors(v) {
					if sends(int(u), r-1) {
						want = append(want, Delivery{From: u, Port: int32(port), Msg: Msg(1, int64(u), int64(r-1))})
					}
				}
				if !slices.Equal(nd.got[r], want) {
					t.Fatalf("node %d round %d received %v, want %v", v, r, nd.got[r], want)
				}
				sparse = sparse || len(want) > 1 && len(want) < g.Degree(v)
			}
		}
		if !sparse {
			t.Fatal("no node heard from more than one but fewer than all of its neighbors")
		}
	}
}
