package sim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ds"
	"repro/internal/graph"
)

// Meter accumulates the cost of a run in the paper's units.
type Meter struct {
	// RawRounds counts engine rounds across all phases.
	RawRounds int
	// MeteredRounds counts rounds after slot serialization: a raw round
	// where the busiest node (V-CONGEST) or edge direction (E-CONGEST)
	// used s slots contributes s.
	MeteredRounds int
	// ChargedRounds are driver-added costs (BFS preprocessing,
	// termination-detection barriers, meta-round simulation overhead).
	ChargedRounds int
	// Messages and Bits count everything sent (a broadcast to d
	// neighbors counts as one message of its size; the V-CONGEST model
	// charges a node once per local broadcast).
	Messages int64
	Bits     int64
	// Phases counts completed RunPhase calls.
	Phases int
}

// TotalRounds is the headline round complexity: slot-serialized rounds
// plus explicit driver charges.
func (m *Meter) TotalRounds() int { return m.MeteredRounds + m.ChargedRounds }

// Charge adds driver-side rounds (e.g., a convergecast barrier) to the
// meter, with a reason recorded only by the caller.
func (m *Meter) Charge(rounds int) { m.ChargedRounds += rounds }

// Add folds src into m, field by field. Drivers that compose several
// engine phases use it to accumulate one run-level meter.
func (m *Meter) Add(src *Meter) {
	m.RawRounds += src.RawRounds
	m.MeteredRounds += src.MeteredRounds
	m.ChargedRounds += src.ChargedRounds
	m.Messages += src.Messages
	m.Bits += src.Bits
	m.Phases += src.Phases
}

// Engine executes Processes over a graph in synchronous rounds.
//
// The engine is built for zero steady-state churn: node rounds run on a
// process-wide persistent worker pool (no per-round goroutine spawns),
// message routing is sharded by receiver so each worker writes only its
// own inboxes, and all inbox/outbox buffers are reused across rounds —
// and, via Reset, across protocol phases on the same graph.
type Engine struct {
	g            *graph.Graph
	model        Model
	procs        []Process
	contexts     []Context
	inbox        [][]Delivery
	nextInbox    [][]Delivery
	meter        Meter
	maxFieldBits int
	workers      int
	phaseRound   int
	statuses     []Status
	observer     func(from, to int32, bits int)
	// workersPinned marks an explicit worker count (WithWorkers or
	// SetDefaultWorkers), which bypasses the small-graph chunk clamp.
	workersPinned bool

	// rev maps each CSR adjacency position p (receiver v listing sender
	// u) to the position of v inside u's neighbor list, so receiver-side
	// routing can recognize directed sends addressed to v. Built only
	// for E-CONGEST engines.
	rev []int32

	// parts are per-worker routing partials (message/bit sums, slot
	// maxima), combined deterministically after each round.
	parts []stepPartial

	// tasks are the per-worker chunk descriptors runParallel sends to the
	// pool, and barrier the fork-join that waits for them.
	tasks   []chunkTask
	barrier sync.WaitGroup

	// edgeSlots + dirtyDirs serve only the legacy observer routing path:
	// per-directed-edge send counts with a dirty list so clearing is
	// proportional to the directions actually used, not O(m) per round.
	edgeSlots []int32
	dirtyDirs []int32
}

// stepPartial is one worker's routing contribution for a single round.
type stepPartial struct {
	maxSlots int32
	messages int64
	bits     int64
}

// Option customizes engine construction.
type Option func(*Engine)

// WithWorkers sets the number of pool workers that execute node rounds
// and routing for this engine. Results are identical for every worker
// count; only wall-clock changes. An explicit count is honored even on
// small graphs (the automatic chunk-size clamp applies only to the
// NumCPU default), so tests can force the parallel path.
func WithWorkers(w int) Option {
	return func(e *Engine) {
		if w > 0 {
			e.workers = w
			e.workersPinned = true
		}
	}
}

// WithMaxFieldBits overrides the per-field bit budget (default
// 2*ceil(log2(n+2))+8, i.e. O(log n)).
func WithMaxFieldBits(b int) Option {
	return func(e *Engine) {
		if b > 0 {
			e.maxFieldBits = b
		}
	}
}

// WithDeliveryObserver registers a callback invoked once per delivered
// message copy (from, to, payload bits). The lower-bound experiments of
// Appendix G use it to count the bits crossing a vertex separator, the
// quantity Lemma G.6 bounds. Observed engines route serially in sender
// order so the callback sequence matches the paper's deterministic
// schedule (and needs no synchronization).
func WithDeliveryObserver(fn func(from, to int32, bits int)) Option {
	return func(e *Engine) { e.observer = fn }
}

// defaultWorkers is the worker count used when WithWorkers is absent;
// 0 means runtime.NumCPU(). Tests override it to pin both sides of the
// determinism contract.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the worker count engines use when WithWorkers
// is not given; w <= 0 restores the runtime.NumCPU() default. It exists
// so determinism tests can run identical workloads single- and
// multi-worker without threading options through every driver.
func SetDefaultWorkers(w int) {
	if w < 0 {
		w = 0
	}
	defaultWorkers.Store(int32(w))
}

func currentDefaultWorkers() (count int, pinned bool) {
	if w := int(defaultWorkers.Load()); w > 0 {
		return w, true
	}
	return runtime.NumCPU(), false
}

// NewEngine builds an engine over g. Each node i runs procs[i]; the
// seed drives every node's private random stream.
func NewEngine(g *graph.Graph, model Model, procs []Process, seed uint64, opts ...Option) (*Engine, error) {
	if len(procs) != g.N() {
		return nil, fmt.Errorf("sim: %d processes for %d nodes", len(procs), g.N())
	}
	if model != VCongest && model != ECongest {
		return nil, fmt.Errorf("sim: unknown model %v", model)
	}
	e := &Engine{
		g:            g,
		model:        model,
		procs:        procs,
		contexts:     make([]Context, g.N()),
		inbox:        make([][]Delivery, g.N()),
		nextInbox:    make([][]Delivery, g.N()),
		maxFieldBits: DefaultMaxFieldBits(g.N()),
		statuses:     make([]Status, g.N()),
	}
	e.workers, e.workersPinned = currentDefaultWorkers()
	if model == ECongest {
		e.rev = buildReverseIndex(g)
	}
	for i := range e.contexts {
		s1, s2 := ds.SplitSeed(seed, uint64(i))
		pcg := rand.NewPCG(s1, s2)
		e.contexts[i] = Context{
			engine: e,
			node:   int32(i),
			pcg:    pcg,
			rng:    rand.New(pcg),
		}
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Reset rebinds the engine to a new protocol run over the same graph
// and model: fresh processes, reseeded per-node random streams, zeroed
// meter and statuses — while keeping every internal buffer (inboxes,
// outboxes, routing partials, reverse index). Drivers that execute many
// phases over one topology reset one engine instead of allocating one
// per phase. Options are re-applied from the defaults, so pass the same
// options each time (or none).
func (e *Engine) Reset(procs []Process, seed uint64, opts ...Option) error {
	if len(procs) != e.g.N() {
		return fmt.Errorf("sim: %d processes for %d nodes", len(procs), e.g.N())
	}
	e.procs = procs
	e.meter = Meter{}
	e.phaseRound = 0
	e.maxFieldBits = DefaultMaxFieldBits(e.g.N())
	e.workers, e.workersPinned = currentDefaultWorkers()
	e.observer = nil
	for i := range e.contexts {
		c := &e.contexts[i]
		c.out = c.out[:0]
		c.slotsUsed = 0
		c.violation = nil
		s1, s2 := ds.SplitSeed(seed, uint64(i))
		c.pcg.Seed(s1, s2)
	}
	for i := range e.inbox {
		e.inbox[i] = e.inbox[i][:0]
		e.nextInbox[i] = e.nextInbox[i][:0]
	}
	clear(e.statuses)
	for _, opt := range opts {
		opt(e)
	}
	return nil
}

// buildReverseIndex computes, for every CSR position p where vertex v
// lists neighbor u, the position of v inside u's neighbor list.
func buildReverseIndex(g *graph.Graph) []int32 {
	off := g.AdjOffsets()
	nbr := g.AdjTargets()
	rev := make([]int32, len(nbr))
	for v := 0; v < g.N(); v++ {
		for p := off[v]; p < off[v+1]; p++ {
			rev[p] = int32(g.NeighborIndex(int(nbr[p]), v))
		}
	}
	return rev
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// Meter returns the accumulated cost meter.
func (e *Engine) Meter() *Meter { return &e.meter }

// Graph returns the underlying topology.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Model returns the congestion model in force.
func (e *Engine) Model() Model { return e.model }

func (e *Engine) checkMessage(m Message) error {
	for _, f := range m.F {
		if fb := fieldBits(f); fb > e.maxFieldBits {
			return fmt.Errorf("sim: field %d needs %d bits, budget %d", f, fb, e.maxFieldBits)
		}
	}
	return nil
}

// RunPhase executes rounds until every process returns Done in the same
// round, or maxRounds elapse (an error). Message buffers carry over
// between phases: messages sent in the final round of a phase are
// delivered in the first round of the next.
func (e *Engine) RunPhase(maxRounds int) error {
	e.phaseRound = 0
	for r := 0; r < maxRounds; r++ {
		allDone, err := e.step()
		if err != nil {
			return err
		}
		e.phaseRound++
		if allDone {
			e.meter.Phases++
			return nil
		}
	}
	return fmt.Errorf("sim: phase did not converge within %d rounds", maxRounds)
}

// minChunkNodes keeps parallel chunks large enough that pool dispatch
// overhead never dominates tiny graphs.
const minChunkNodes = 32

// effWorkers returns the worker count actually used for n nodes: an
// explicit count is clamped only to n, the NumCPU default also by chunk
// size so pool dispatch never dominates tiny graphs.
func (e *Engine) effWorkers(n int) int {
	w := e.workers
	if e.workersPinned {
		if w > n {
			w = n
		}
	} else if cap := n / minChunkNodes; w > cap {
		w = cap
	}
	if w < 1 {
		w = 1
	}
	return w
}

// step runs one synchronous round: node Round calls, then message
// routing and metering. Both halves run serially for one worker and on
// the shared pool otherwise; results are bit-identical either way.
func (e *Engine) step() (allDone bool, err error) {
	n := e.g.N()
	w := e.effWorkers(n)

	if w == 1 {
		e.roundRange(0, n)
	} else {
		e.runParallel(w, n, false)
	}

	for v := range e.contexts {
		if e.contexts[v].violation != nil {
			return false, e.contexts[v].violation
		}
	}

	var maxSlots int32
	switch {
	case e.observer != nil:
		maxSlots = e.routeObserved()
	case w == 1:
		p := &stepPartial{}
		e.routeRange(0, n, p)
		e.meter.Messages += p.messages
		e.meter.Bits += p.bits
		maxSlots = p.maxSlots
	default:
		if len(e.parts) < w {
			e.parts = make([]stepPartial, w)
		}
		// Zero before dispatch: runParallel skips empty chunks, and a
		// skipped slot must not contribute a stale partial to the sums.
		for i := 0; i < w; i++ {
			e.parts[i] = stepPartial{}
		}
		e.runParallel(w, n, true)
		for i := 0; i < w; i++ {
			e.meter.Messages += e.parts[i].messages
			e.meter.Bits += e.parts[i].bits
			if e.parts[i].maxSlots > maxSlots {
				maxSlots = e.parts[i].maxSlots
			}
		}
	}

	if maxSlots < 1 {
		maxSlots = 1
	}
	e.meter.RawRounds++
	e.meter.MeteredRounds += int(maxSlots)
	e.inbox, e.nextInbox = e.nextInbox, e.inbox

	allDone = true
	for v := 0; v < n; v++ {
		if e.statuses[v] != Done {
			allDone = false
			break
		}
	}
	return allDone, nil
}

// roundRange executes Round for nodes [lo, hi), reusing each context's
// outbox buffer.
func (e *Engine) roundRange(lo, hi int) {
	for v := lo; v < hi; v++ {
		ctx := &e.contexts[v]
		ctx.out = ctx.out[:0]
		ctx.slotsUsed = 0
		e.statuses[v] = e.procs[v].Round(ctx, e.inbox[v])
	}
}

// routeRange meters the sends of nodes [lo, hi) and assembles their
// next-round inboxes. Each node acts in two roles: as a sender its
// outbox is metered locally (every directed-edge slot counter has a
// unique tail, so no cross-node state is ever shared), and as a
// receiver it scans its neighbors' outboxes in ascending sender order —
// exactly the delivery order the sender-major loop produced, so inbox
// contents are byte-identical to the sequential schedule.
func (e *Engine) routeRange(lo, hi int, p *stepPartial) {
	off := e.g.AdjOffsets()
	nbrFlat := e.g.AdjTargets()
	for v := lo; v < hi; v++ {
		ctx := &e.contexts[v]
		deg := int64(off[v+1] - off[v])
		if e.model == VCongest {
			if ctx.slotsUsed > p.maxSlots {
				p.maxSlots = ctx.slotsUsed
			}
			for i := range ctx.out {
				p.messages++
				p.bits += int64(ctx.out[i].msg.BitSize())
			}
		} else {
			for i := range ctx.out {
				size := int64(ctx.out[i].msg.BitSize())
				if ctx.out[i].target < 0 {
					// A broadcast in E-CONGEST sends one copy per
					// incident edge (net zero for isolated nodes).
					p.messages += deg
					p.bits += size * deg
				} else {
					p.messages++
					p.bits += size
				}
			}
		}

		buf := e.nextInbox[v][:0]
		for pos := off[v]; pos < off[v+1]; pos++ {
			u := nbrFlat[pos]
			out := e.contexts[u].out
			if len(out) == 0 {
				continue
			}
			if e.model == VCongest {
				for i := range out {
					buf = append(buf, Delivery{From: u, Slot: out[i].slot, Msg: out[i].msg})
				}
			} else {
				revIdx := e.rev[pos]
				var dirCount int32
				for i := range out {
					if out[i].target < 0 {
						buf = append(buf, Delivery{From: u, Slot: out[i].slot, Msg: out[i].msg})
						dirCount++
					} else if out[i].target == revIdx {
						buf = append(buf, Delivery{From: u, Slot: dirCount, Msg: out[i].msg})
						dirCount++
					}
				}
				if dirCount > p.maxSlots {
					p.maxSlots = dirCount
				}
			}
		}
		e.nextInbox[v] = buf
	}
}

// routeObserved is the sender-major routing path used when a delivery
// observer is registered: the callback sees deliveries in the canonical
// sender order and runs on one goroutine. Slot counters live in the
// edgeSlots array, cleared through a dirty list so the per-round cost is
// proportional to the directions actually used.
func (e *Engine) routeObserved() int32 {
	n := e.g.N()
	for v := range e.nextInbox {
		e.nextInbox[v] = e.nextInbox[v][:0]
	}
	if e.model == ECongest && e.edgeSlots == nil {
		e.edgeSlots = make([]int32, 2*e.g.M())
	}
	maxSlots := int32(0)
	for v := 0; v < n; v++ {
		ctx := &e.contexts[v]
		if e.model == VCongest && ctx.slotsUsed > maxSlots {
			maxSlots = ctx.slotsUsed
		}
		for _, om := range ctx.out {
			if om.target < 0 { // broadcast
				e.meter.Messages++
				e.meter.Bits += int64(om.msg.BitSize())
				for _, w := range e.g.Neighbors(v) {
					e.nextInbox[w] = append(e.nextInbox[w], Delivery{From: int32(v), Slot: om.slot, Msg: om.msg})
					e.observer(int32(v), w, om.msg.BitSize())
				}
				if e.model == ECongest {
					// A broadcast in E-CONGEST occupies one slot on
					// each incident edge direction.
					for _, eid := range e.g.IncidentEdges(v) {
						dir := e.dirIndex(v, int(eid))
						if e.edgeSlots[dir] == 0 {
							e.dirtyDirs = append(e.dirtyDirs, int32(dir))
						}
						e.edgeSlots[dir]++
						if e.edgeSlots[dir] > maxSlots {
							maxSlots = e.edgeSlots[dir]
						}
					}
					e.meter.Messages += int64(e.g.Degree(v) - 1) // one message per edge
					e.meter.Bits += int64(om.msg.BitSize()) * int64(e.g.Degree(v)-1)
				}
			} else {
				nbr := e.g.Neighbors(v)[om.target]
				eid := e.g.IncidentEdges(v)[om.target]
				dir := e.dirIndex(v, int(eid))
				slot := e.edgeSlots[dir]
				if slot == 0 {
					e.dirtyDirs = append(e.dirtyDirs, int32(dir))
				}
				e.edgeSlots[dir]++
				if e.edgeSlots[dir] > maxSlots {
					maxSlots = e.edgeSlots[dir]
				}
				e.meter.Messages++
				e.meter.Bits += int64(om.msg.BitSize())
				e.nextInbox[nbr] = append(e.nextInbox[nbr], Delivery{From: int32(v), Slot: slot, Msg: om.msg})
				e.observer(int32(v), nbr, om.msg.BitSize())
			}
		}
	}
	for _, dir := range e.dirtyDirs {
		e.edgeSlots[dir] = 0
	}
	e.dirtyDirs = e.dirtyDirs[:0]
	return maxSlots
}

// dirIndex maps (tail vertex, edge id) to a directed-edge index in
// [0, 2m): edge id e has directions 2e (from U) and 2e+1 (from V).
func (e *Engine) dirIndex(tail, edgeID int) int {
	u, _ := e.g.Endpoints(edgeID)
	if tail == u {
		return 2 * edgeID
	}
	return 2*edgeID + 1
}

// --- persistent worker pool ----------------------------------------------

// The pool is process-wide and lives for the lifetime of the program:
// engines hand parked workers preallocated chunk descriptors by pointer
// instead of spawning goroutines every round (the parlaylib idiom of
// persistent workers), so a parallel round allocates nothing.
var pool struct {
	once sync.Once
	jobs chan *chunkTask
}

// chunkTask is one contiguous node range [lo, hi) of a parallel
// half-round: node Round calls, or routing into parts[chunk] when route
// is set. Each engine owns one per worker, reused every round.
type chunkTask struct {
	e             *Engine
	chunk, lo, hi int
	route         bool
}

func startPool() {
	pool.jobs = make(chan *chunkTask, 4*runtime.GOMAXPROCS(0))
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for t := range pool.jobs {
				t.run()
				t.e.barrier.Done()
			}
		}()
	}
}

func (t *chunkTask) run() {
	if t.route {
		t.e.routeRange(t.lo, t.hi, &t.e.parts[t.chunk])
	} else {
		t.e.roundRange(t.lo, t.hi)
	}
}

// runParallel splits [0, n) into w contiguous chunks and runs one
// half-round over them: the pool takes all but the last chunk, the
// caller works the last one itself (fork-join, which keeps one chunk on
// the core that just dispatched), then blocks on the engine's barrier
// until every chunk finishes. Chunk boundaries depend only on (w, n),
// never on scheduling, so partial results combined in chunk order are
// deterministic.
func (e *Engine) runParallel(w, n int, route bool) {
	pool.once.Do(startPool)
	if len(e.tasks) < w {
		e.tasks = make([]chunkTask, w)
	}
	chunk := (n + w - 1) / w
	last := (n - 1) / chunk // chunks past it are empty
	for i := 0; i <= last; i++ {
		e.tasks[i] = chunkTask{e: e, chunk: i, lo: i * chunk, hi: min((i+1)*chunk, n), route: route}
		if i < last {
			e.barrier.Add(1)
			pool.jobs <- &e.tasks[i]
		}
	}
	e.tasks[last].run()
	e.barrier.Wait()
}
