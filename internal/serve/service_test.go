package serve

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cast"
	"repro/internal/cds"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/sim"
)

func testGraph() *graph.Graph { return graph.RandomHamCycles(64, 4, ds.NewRand(7)) }

// mustRegister registers an in-process graph, failing the test on error.
func mustRegister(t *testing.T, s *Service, g *graph.Graph) string {
	t.Helper()
	id, err := s.RegisterGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestRegisterIdempotent pins the content-hash registry: the same graph
// registered twice (even with shuffled/duplicated edges) maps to one
// entry, and distinct graphs map to distinct entries.
func TestRegisterIdempotent(t *testing.T) {
	s := New(Config{})
	g := graph.Hypercube(3)
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	id1, err := s.Register(g.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed order, reversed endpoints, plus duplicates and a self-loop:
	// the canonicalizing builder must hash these to the same graph.
	var shuffled [][2]int
	for i := len(edges) - 1; i >= 0; i-- {
		shuffled = append(shuffled, [2]int{edges[i][1], edges[i][0]})
	}
	shuffled = append(shuffled, edges[0], [2]int{1, 1})
	id2, err := s.Register(g.N(), shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("same graph registered under two ids: %s vs %s", id1, id2)
	}
	if st := s.Stats(); st.Graphs != 1 {
		t.Fatalf("registry holds %d graphs, want 1", st.Graphs)
	}
	id3 := mustRegister(t, s, graph.Hypercube(4))
	if id3 == id1 {
		t.Fatal("distinct graphs collided")
	}
	if _, err := s.Register(0, nil); err == nil {
		t.Fatal("n=0 graph accepted")
	}
	// Out-of-range endpoints must error at the service boundary (the
	// graph builder would panic — unacceptable on the network path).
	for _, bad := range [][2]int{{0, 5}, {-1, 0}, {8, 1}} {
		if _, err := s.Register(4, [][2]int{bad}); err == nil {
			t.Fatalf("out-of-range edge %v accepted", bad)
		}
	}
}

// TestSingleflightPacksOnce is the cache-stampede gate the acceptance
// criteria name: 16 goroutines request the same decomposition
// concurrently, and the packer must run exactly once — one compute, 15
// cache hits, every caller seeing the identical packing.
func TestSingleflightPacksOnce(t *testing.T) {
	for _, kind := range []Kind{Dominating, Spanning} {
		s := New(Config{PackSeed: 1})
		id := mustRegister(t, s, testGraph())
		const callers = 16
		infos := make([]DecompInfo, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				infos[i], errs[i] = s.Decompose(id, kind)
			}(i)
		}
		wg.Wait()
		for i := 0; i < callers; i++ {
			if errs[i] != nil {
				t.Fatalf("kind %s caller %d: %v", kind, i, errs[i])
			}
			if infos[i].Trees != infos[0].Trees || infos[i].Size != infos[0].Size {
				t.Fatalf("kind %s caller %d saw a different packing: %+v vs %+v", kind, i, infos[i], infos[0])
			}
		}
		st := s.Stats()
		if st.PackComputes != 1 {
			t.Fatalf("kind %s: %d packings computed for %d concurrent requests, want exactly 1", kind, st.PackComputes, callers)
		}
		// The 15 followers either raced the leader (coalesced) or arrived
		// after it finished (true cache hit); together they account for
		// every request but the leader's.
		if st.PackRequests != callers || st.CacheHits+st.Coalesced != callers-1 {
			t.Fatalf("kind %s: requests=%d hits=%d coalesced=%d, want %d requests and hits+coalesced=%d",
				kind, st.PackRequests, st.CacheHits, st.Coalesced, callers, callers-1)
		}
		// A sequential re-request against the now-complete entry is a true
		// cache hit, never coalesced.
		if _, err := s.Decompose(id, kind); err != nil {
			t.Fatal(err)
		}
		st2 := s.Stats()
		if st2.CacheHits != st.CacheHits+1 || st2.Coalesced != st.Coalesced {
			t.Fatalf("kind %s: sequential re-request counted hits %d->%d coalesced %d->%d, want a single cache hit",
				kind, st.CacheHits, st2.CacheHits, st.Coalesced, st2.Coalesced)
		}
		if len(st2.PerGraph) != 1 || st2.PerGraph[0].CacheHits+st2.PerGraph[0].Coalesced != callers {
			t.Fatalf("kind %s: per-graph hit accounting wrong: %+v", kind, st2.PerGraph)
		}
	}
}

// TestBroadcastConcurrentMatchesSerial is the service-level determinism
// gate: 8 workers × 16 demands each through the service (free-list handles,
// bounded concurrency) must be byte-identical to a serial replay on one
// scheduler handle built from the same packing.
func TestBroadcastConcurrentMatchesSerial(t *testing.T) {
	g := testGraph()
	s := New(Config{PackSeed: 1, MaxConcurrent: 4})
	id := mustRegister(t, s, g)

	const nWorkers, nDemands = 8, 16
	demands := make([][]cast.Demand, nWorkers)
	for w := range demands {
		demands[w] = make([]cast.Demand, nDemands)
		for d := range demands[w] {
			size := g.N()/2 + (w*nDemands+d)%g.N()
			demands[w][d] = cast.UniformDemand(g.N(), size, ds.NewRand(uint64(500+w*nDemands+d)))
		}
	}
	seed := func(w, d int) uint64 { return uint64(11 + w*nDemands + d) }

	// Serial reference: same packing (same seed), one handle.
	p, err := cds.Pack(g, cds.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	trees := make([]cast.WeightedTree, len(p.Trees))
	for i, tr := range p.Trees {
		trees[i] = cast.WeightedTree{Tree: tr.Tree, Weight: tr.Weight}
	}
	ref, err := cast.NewScheduler(g, trees, sim.VCongest)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]cast.Result, nWorkers)
	for w := range demands {
		want[w] = make([]cast.Result, nDemands)
		for d, dem := range demands[w] {
			r, err := ref.Run(dem, seed(w, d))
			if err != nil {
				t.Fatal(err)
			}
			want[w][d] = r
		}
	}

	got := make([][]cast.Result, nWorkers)
	errs := make([]error, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]cast.Result, nDemands)
			for d, dem := range demands[w] {
				r, err := s.Broadcast(id, Dominating, dem.Sources, seed(w, d))
				if err != nil {
					errs[w] = err
					return
				}
				got[w][d] = r
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < nWorkers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for d := range got[w] {
			if got[w][d] != want[w][d] {
				t.Fatalf("worker %d demand %d: service %+v != serial %+v", w, d, got[w][d], want[w][d])
			}
		}
	}

	st := s.Stats()
	if st.PackComputes != 1 {
		t.Fatalf("%d packings computed, want 1", st.PackComputes)
	}
	if st.Requests != nWorkers*nDemands {
		t.Fatalf("stats count %d requests, want %d", st.Requests, nWorkers*nDemands)
	}
	if len(st.PerGraph) != 1 || st.PerGraph[0].Requests != nWorkers*nDemands {
		t.Fatalf("per-graph stats wrong: %+v", st.PerGraph)
	}
	if st.Rounds == 0 || st.MaxVertexCongestion == 0 {
		t.Fatalf("rounds/congestion not metered: %+v", st)
	}
}

// TestBroadcastValidation covers the request-boundary errors.
func TestBroadcastValidation(t *testing.T) {
	s := New(Config{})
	id := mustRegister(t, s, graph.Hypercube(3))
	if _, err := s.Broadcast("nope", Dominating, []int{0}, 1); err == nil || !strings.Contains(err.Error(), "unknown graph") {
		t.Fatalf("unknown graph not rejected: %v", err)
	}
	if _, err := s.Broadcast(id, Dominating, nil, 1); err == nil {
		t.Fatal("empty demand accepted")
	}
	if _, err := s.Broadcast(id, Dominating, []int{99}, 1); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := s.Broadcast(id, Kind("triangulating"), []int{0}, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := s.Decompose(id, Kind("triangulating")); err == nil {
		t.Fatal("unknown kind accepted by Decompose")
	}
	if _, err := s.Decompose("nope", Dominating); err == nil {
		t.Fatal("unknown graph accepted by Decompose")
	}
}

// TestPackErrorCached pins that a packing failure is cached like a
// success: the deterministic packer would fail identically on retry, so
// the singleflight slot keeps the error and computes only once.
func TestPackErrorCached(t *testing.T) {
	s := New(Config{})
	// A disconnected graph cannot be packed with spanning trees.
	id := mustRegister(t, s, graph.FromEdgeList(4, [][2]int{{0, 1}, {2, 3}}))
	if _, err := s.Decompose(id, Spanning); err == nil {
		t.Fatal("disconnected graph packed")
	}
	if _, err := s.Broadcast(id, Spanning, []int{0}, 1); err == nil {
		t.Fatal("broadcast over failed packing succeeded")
	}
	// The cached error must come back alone: a populated DecompInfo next
	// to a non-nil error invites callers into using a packing that does
	// not exist.
	info, err := s.Decompose(id, Spanning)
	if err == nil {
		t.Fatal("cached pack error not replayed")
	}
	if info != (DecompInfo{}) {
		t.Fatalf("cached pack error returned populated info: %+v", info)
	}
	if st := s.Stats(); st.PackComputes != 1 {
		t.Fatalf("failed packing recomputed: %d computes", st.PackComputes)
	}
}
