package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cast"
	"repro/internal/graph"
)

func getJSON(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastFaultedDeterministic pins the chaos path end to end:
// the same (graph, kind, demand, seed, plan) through the service is
// exactly reproducible, degrades gracefully (structured partial
// delivery, no error), does not poison the packing cache, and lands in
// the chaos stats globally and per graph.
func TestBroadcastFaultedDeterministic(t *testing.T) {
	s := New(Config{PackSeed: 1})
	id := mustRegister(t, s, testGraph())
	sources := []int{0, 1, 2, 3, 4, 5, 6, 7}
	plan := cast.FaultPlan{Round: 1, RandomEdges: 3, Seed: 42}
	ctx := context.Background()
	for _, kind := range []Kind{Dominating, Spanning} {
		first, err := s.BroadcastFaulted(ctx, id, kind, sources, 9, plan)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		again, err := s.BroadcastFaulted(ctx, id, kind, sources, 9, plan)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Fatalf("%s: faulted broadcast diverged: %+v vs %+v", kind, first, again)
		}
		if first.DeliveredFraction <= 0 || first.DeliveredFraction > 1 {
			t.Fatalf("%s: delivered fraction %v out of (0,1]", kind, first.DeliveredFraction)
		}
		// The faulted run shares the healthy decomposition cache: no
		// extra packing may have happened, and a healthy broadcast over
		// the same cache still works.
		if _, err := s.Broadcast(id, kind, sources, 9); err != nil {
			t.Fatalf("%s: healthy broadcast after chaos: %v", kind, err)
		}
	}
	st := s.Stats()
	if st.PackComputes != 2 {
		t.Fatalf("PackComputes=%d, want 2 (chaos must reuse the cache)", st.PackComputes)
	}
	if st.FaultedRequests != 4 {
		t.Fatalf("FaultedRequests=%d, want 4", st.FaultedRequests)
	}
	if st.Requests != 6 {
		t.Fatalf("Requests=%d, want 6 (faulted demands count as served)", st.Requests)
	}
	if st.DeliveredFraction <= 0 || st.DeliveredFraction > 1 {
		t.Fatalf("stats DeliveredFraction=%v", st.DeliveredFraction)
	}
	if len(st.PerGraph) != 1 || st.PerGraph[0].FaultedRequests != 4 {
		t.Fatalf("per-graph chaos stats missing: %+v", st.PerGraph)
	}
	if st.PerGraph[0].DeliveredFraction != st.DeliveredFraction {
		t.Fatalf("per-graph fraction %v != global %v with one graph", st.PerGraph[0].DeliveredFraction, st.DeliveredFraction)
	}
}

// TestBroadcastFaultedValidation: invalid plans error without touching
// the broadcast stats.
func TestBroadcastFaultedValidation(t *testing.T) {
	s := New(Config{PackSeed: 1})
	id := mustRegister(t, s, testGraph())
	ctx := context.Background()
	bad := []cast.FaultPlan{
		{Round: -1},
		{Edges: []int{1 << 20}},
		{Vertices: []int{-1}},
		{RandomEdges: -1},
	}
	for i, plan := range bad {
		if _, err := s.BroadcastFaulted(ctx, id, Spanning, []int{0, 1}, 1, plan); err == nil {
			t.Fatalf("plan %d (%+v) accepted", i, plan)
		}
	}
	if st := s.Stats(); st.Requests != 0 || st.FaultedRequests != 0 {
		t.Fatalf("failed chaos requests leaked into stats: %+v", st)
	}
}

// TestBroadcastContextCancelReleasesSlot pins the disconnect story: a
// cancelled request returns the context error, releases its bounded-
// runner slot and returns the clone to the pool, so subsequent demands
// proceed unimpeded — with MaxConcurrent=1 a leaked slot would deadlock
// the follow-up broadcast.
func TestBroadcastContextCancelReleasesSlot(t *testing.T) {
	s := New(Config{PackSeed: 1, MaxConcurrent: 1})
	id := mustRegister(t, s, testGraph())
	sources := []int{0, 1, 2, 3}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.BroadcastContext(cancelled, id, Spanning, sources, 1); err != context.Canceled {
		t.Fatalf("cancelled broadcast: err=%v, want context.Canceled", err)
	}
	if _, err := s.BroadcastFaulted(cancelled, id, Spanning, sources, 1, cast.FaultPlan{RandomEdges: 1, Seed: 1, Round: 1}); err != context.Canceled {
		t.Fatalf("cancelled faulted broadcast: err=%v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Requests != 0 {
		t.Fatalf("cancelled demands counted as served: %+v", st)
	}

	// The slot and clone must be free: a healthy broadcast completes
	// promptly and matches an uncancelled service's result exactly.
	done := make(chan struct{})
	var got cast.Result
	go func() {
		defer close(done)
		var err error
		got, err = s.Broadcast(id, Spanning, sources, 7)
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("broadcast after cancellation never completed: slot leaked")
	}
	fresh := New(Config{PackSeed: 1})
	if _, err := fresh.RegisterGraph(testGraph()); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Broadcast(id, Spanning, sources, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-cancel broadcast diverged: %+v vs %+v", got, want)
	}
}

// TestHTTPFaultedBroadcast drives chaos mode over real HTTP: a request
// with a fault plan returns the fault accounting, replays byte-
// identically, and leaves the healthy path serving the same graph.
func TestHTTPFaultedBroadcast(t *testing.T) {
	svc := New(Config{PackSeed: 1, MaxConcurrent: 4})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := srv.Client()

	g := graph.Hypercube(4)
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	var info GraphInfo
	if code, body := postJSON(t, client, srv.URL+"/v1/graphs", RegisterRequest{N: g.N(), Edges: edges}, &info); code != http.StatusOK {
		t.Fatalf("register: %d %s", code, body)
	}
	req := BroadcastRequest{
		Kind: Spanning, Sources: []int{0, 1, 2, 3}, Seed: 3,
		Fault: &cast.FaultPlan{Round: 1, RandomEdges: 2, Seed: 6},
	}
	url := srv.URL + "/v1/graphs/" + info.ID + "/broadcast"
	var resp BroadcastResponse
	if code, body := postJSON(t, client, url, req, &resp); code != http.StatusOK {
		t.Fatalf("faulted broadcast: %d %s", code, body)
	}
	if resp.Fault == nil {
		t.Fatalf("faulted response missing fault info: %+v", resp)
	}
	if resp.Fault.FailedEdges != 2 || resp.Fault.DeliveredFraction <= 0 {
		t.Fatalf("implausible fault info: %+v", resp.Fault)
	}
	var replay BroadcastResponse
	if code, body := postJSON(t, client, url, req, &replay); code != http.StatusOK {
		t.Fatalf("replay: %d %s", code, body)
	}
	if *replay.Fault != *resp.Fault || replay.Result != resp.Result {
		t.Fatalf("HTTP chaos replay diverged: %+v vs %+v", replay, resp)
	}

	healthy := BroadcastRequest{Kind: Spanning, Sources: []int{0, 1, 2, 3}, Seed: 3}
	var hres BroadcastResponse
	if code, body := postJSON(t, client, url, healthy, &hres); code != http.StatusOK {
		t.Fatalf("healthy after chaos: %d %s", code, body)
	}
	if hres.Fault != nil {
		t.Fatalf("healthy response carries fault info: %+v", hres)
	}
	var st Stats
	getJSON(t, client, srv.URL+"/v1/stats", &st)
	if st.FaultedRequests != 2 || st.Requests != 3 {
		t.Fatalf("stats after chaos: %+v", st)
	}
}

// TestHandlerErrorPaths pins the HTTP error contract: malformed JSON,
// unknown graph ids, unknown kinds, and oversized demands map to the
// right status codes, and none of them pollutes the packing cache or
// the served-demand stats.
func TestHandlerErrorPaths(t *testing.T) {
	svc := New(Config{PackSeed: 1, MaxMsgsPerDemand: 4})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	client := srv.Client()

	g := graph.Hypercube(3)
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	var info GraphInfo
	if code, body := postJSON(t, client, srv.URL+"/v1/graphs", RegisterRequest{N: g.N(), Edges: edges}, &info); code != http.StatusOK {
		t.Fatalf("register: %d %s", code, body)
	}
	bURL := srv.URL + "/v1/graphs/" + info.ID + "/broadcast"

	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 1024)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"malformed JSON", bURL, `{"kind":`, http.StatusBadRequest},
		{"unknown field", bURL, `{"kind":"spanning","bogus":1}`, http.StatusBadRequest},
		{"unknown graph", srv.URL + "/v1/graphs/gdeadbeef/broadcast", `{"kind":"spanning","sources":[0],"seed":1}`, http.StatusNotFound},
		{"unknown kind", bURL, `{"kind":"steiner","sources":[0],"seed":1}`, http.StatusBadRequest},
		{"empty demand", bURL, `{"kind":"spanning","sources":[],"seed":1}`, http.StatusBadRequest},
		{"oversized demand", bURL, `{"kind":"spanning","sources":[0,1,2,3,4,5],"seed":1}`, http.StatusBadRequest},
		{"source out of range", bURL, `{"kind":"spanning","sources":[99],"seed":1}`, http.StatusBadRequest},
		{"bad fault plan", bURL, `{"kind":"spanning","sources":[0],"seed":1,"fault":{"round":-1}}`, http.StatusBadRequest},
		{"retry budget above cap", bURL, `{"kind":"spanning","sources":[0],"seed":1,"fault":{"round":1,"max_retries":100000}}`, http.StatusBadRequest},
		{"unknown graph decompose", srv.URL + "/v1/graphs/gdeadbeef/decomposition", `{"kind":"spanning"}`, http.StatusNotFound},
		{"unknown kind decompose", srv.URL + "/v1/graphs/" + info.ID + "/decomposition", `{"kind":"steiner"}`, http.StatusBadRequest},
		{"bad register", srv.URL + "/v1/graphs", `{"n":-3}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := post(tc.url, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d (body %s), want %d", tc.name, code, body, tc.want)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: error body missing structured error: %s", tc.name, body)
		}
	}

	// None of the failures may have polluted caches or demand stats.
	var st Stats
	getJSON(t, client, srv.URL+"/v1/stats", &st)
	if st.Requests != 0 || st.FaultedRequests != 0 {
		t.Fatalf("failed requests counted as served: %+v", st)
	}
	// The oversized/unknown-kind paths run before packing; only valid
	// kinds on the real graph may ever have computed (here: none, since
	// every broadcast failed validation first... except the empty/bad
	// plan cases which validate before pack too).
	if st.PackComputes > 1 {
		t.Fatalf("error paths packed %d decompositions", st.PackComputes)
	}
}

// TestChaosStatsSnapshotConsistency is the torn-snapshot regression: the
// delivered/expected pair must move atomically, so a Stats reader racing
// faulted broadcasts that each deliver fully can never observe a
// fraction other than exactly 1. (With the pair as two independent
// atomics, a snapshot between the two bumps reports a transiently wrong
// fraction — this test, under -race or just enough iterations, catches
// that.)
func TestChaosStatsSnapshotConsistency(t *testing.T) {
	g := graph.Complete(16)
	sources := []int{0, 1, 2, 3}

	// Pre-verify serially which single-edge-kill runs deliver fully with
	// retries on; only those go into the concurrent phase, so fraction 1
	// is the exact invariant, not an approximation.
	probe := New(Config{PackSeed: 1})
	pid, err := probe.RegisterGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		seed uint64
		plan cast.FaultPlan
	}
	var jobs []job
	for seed := uint64(1); len(jobs) < 16 && seed < 256; seed++ {
		plan := cast.FaultPlan{Round: 1, RandomEdges: 1, Seed: seed, MaxRetries: 2}
		fres, err := probe.BroadcastFaulted(context.Background(), pid, Spanning, sources, seed, plan)
		if err != nil {
			t.Fatal(err)
		}
		if fres.DeliveredFraction == 1 {
			jobs = append(jobs, job{seed, plan})
		}
	}
	if len(jobs) < 8 {
		t.Fatalf("only %d fully-delivering fault runs found", len(jobs))
	}

	s := New(Config{PackSeed: 1, MaxConcurrent: 8})
	id, err := s.RegisterGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	var torn atomic.Value // first inconsistent snapshot, as a string
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.DeliveredFraction != 1 {
					torn.CompareAndSwap(nil, fmt.Sprintf("global fraction %v", st.DeliveredFraction))
				}
				for _, pg := range st.PerGraph {
					if pg.DeliveredFraction != 1 {
						torn.CompareAndSwap(nil, fmt.Sprintf("per-graph fraction %v", pg.DeliveredFraction))
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				if _, err := s.BroadcastFaulted(context.Background(), id, Spanning, sources, j.seed, j.plan); err != nil {
					t.Error(err)
				}
			}(j)
		}
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if msg := torn.Load(); msg != nil {
		t.Fatalf("torn chaos snapshot observed: %v", msg)
	}
	if st := s.Stats(); st.DeliveredFraction != 1 || st.FaultedRequests != uint64(4*len(jobs)) {
		t.Fatalf("final stats wrong: %+v", st)
	}
}
