package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cast"
	"repro/internal/graph"
)

func postJSON(t *testing.T, client *http.Client, url string, body, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("bad response %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

// TestHTTPRoundTrip drives the whole API over a real HTTP server:
// register, decompose (concurrently, proving the singleflight holds
// across the HTTP layer), broadcast, stats — and pins that the HTTP
// path returns results byte-identical to the in-process service.
func TestHTTPRoundTrip(t *testing.T) {
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
	if info.N != g.N() || info.M != g.M() {
		t.Fatalf("register echoed wrong graph: %+v", info)
	}

	// GET the graph back.
	resp, err := client.Get(srv.URL + "/v1/graphs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph lookup: %d", resp.StatusCode)
	}

	// Concurrent decomposition requests over HTTP: exactly one packing.
	const callers = 8
	var wg sync.WaitGroup
	infos := make([]DecompInfo, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSON(t, client, srv.URL+"/v1/graphs/"+info.ID+"/decomposition",
				DecomposeRequest{Kind: Spanning}, &infos[i])
			if code != http.StatusOK {
				t.Errorf("decompose %d: %d %s", i, code, body)
			}
		}(i)
	}
	wg.Wait()
	for i := range infos {
		if infos[i].Trees != infos[0].Trees || infos[i].Size != infos[0].Size {
			t.Fatalf("caller %d saw different decomposition: %+v vs %+v", i, infos[i], infos[0])
		}
	}

	// Broadcast over HTTP == in-process broadcast, byte for byte.
	srcs := []int{0, 3, 7, 11, 15, 2, 9}
	var resp1 BroadcastResponse
	if code, body := postJSON(t, client, srv.URL+"/v1/graphs/"+info.ID+"/broadcast",
		BroadcastRequest{Kind: Spanning, Sources: srcs, Seed: 42}, &resp1); code != http.StatusOK {
		t.Fatalf("broadcast: %d %s", code, body)
	}
	direct, err := svc.Broadcast(info.ID, Spanning, srcs, 42)
	if err != nil {
		t.Fatal(err)
	}
	if resp1.Result != direct {
		t.Fatalf("HTTP result %+v != in-process result %+v", resp1.Result, direct)
	}
	if resp1.Messages != len(srcs) {
		t.Fatalf("messages echoed wrong: %+v", resp1)
	}

	// Stats reflect the traffic and the single packing.
	var st Stats
	sresp, err := client.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.PackComputes != 1 {
		t.Fatalf("stats report %d packings over HTTP, want 1", st.PackComputes)
	}
	if st.Requests != 2 { // one HTTP broadcast + one in-process
		t.Fatalf("stats report %d requests, want 2", st.Requests)
	}

	// Error paths: bad body, unknown graph, unknown kind, bad sources.
	for _, tc := range []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown graph", srv.URL + "/v1/graphs/gdeadbeef/broadcast", BroadcastRequest{Kind: Spanning, Sources: srcs}, http.StatusNotFound},
		{"unknown kind", srv.URL + "/v1/graphs/" + info.ID + "/broadcast", BroadcastRequest{Kind: "nope", Sources: srcs}, http.StatusBadRequest},
		{"bad source", srv.URL + "/v1/graphs/" + info.ID + "/broadcast", BroadcastRequest{Kind: Spanning, Sources: []int{-1}}, http.StatusBadRequest},
		{"unknown graph decomp", srv.URL + "/v1/graphs/gdeadbeef/decomposition", DecomposeRequest{Kind: Spanning}, http.StatusNotFound},
		{"bad register", srv.URL + "/v1/graphs", RegisterRequest{N: -3}, http.StatusBadRequest},
	} {
		if code, _ := postJSON(t, client, tc.url, tc.body, nil); code != tc.want {
			t.Fatalf("%s: got %d, want %d", tc.name, code, tc.want)
		}
	}
	if code, _ := postJSON(t, client, srv.URL+"/v1/graphs", map[string]any{"n": 4, "bogus": true}, nil); code != http.StatusBadRequest {
		t.Fatal("unknown field accepted")
	}
}

// TestHTTPLoadThroughService exercises the load generator against a
// service that is simultaneously serving HTTP traffic.
func TestHTTPLoadThroughService(t *testing.T) {
	svc := New(Config{PackSeed: 1, MaxConcurrent: 4})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	g := graph.Complete(12)
	id, err := svc.RegisterGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var rep LoadReport
	var lerr error
	go func() {
		defer wg.Done()
		rep, lerr = GenerateLoad(svc, LoadConfig{GraphID: id, Kind: Spanning, Workers: 2, Demands: 4, Seed: 9})
	}()
	var hres BroadcastResponse
	code, body := postJSON(t, srv.Client(), fmt.Sprintf("%s/v1/graphs/%s/broadcast", srv.URL, id),
		BroadcastRequest{Kind: Spanning, Sources: []int{0, 5}, Seed: 1}, &hres)
	if code != http.StatusOK {
		t.Fatalf("broadcast during load: %d %s", code, body)
	}
	wg.Wait()
	if lerr != nil {
		t.Fatal(lerr)
	}
	if rep.Demands != 8 {
		t.Fatalf("load report %+v", rep)
	}
	if hres.Result == (cast.Result{}) {
		t.Fatal("HTTP broadcast returned zero result")
	}
	if st := svc.Stats(); st.PackComputes != 1 || st.Requests != 9 {
		t.Fatalf("mixed workload stats: %+v", st)
	}
}

// TestHTTPBatch drives the batch endpoint end to end: a mixed batch
// comes back as one 200 with per-demand entries (individual failures as
// entries), exactly one pack-cache checkout lands in the stats, and the
// request-level error matrix maps to the right status codes.
func TestHTTPBatch(t *testing.T) {
	svc := New(Config{PackSeed: 1, MaxConcurrent: 4, MaxBatch: 8})
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
	bURL := srv.URL + "/v1/graphs/" + info.ID + "/broadcast/batch"

	req := BatchRequest{Kind: Spanning, Demands: []BatchDemand{
		{Sources: []int{0, 3, 7}, Seed: 1},
		{Sources: []int{99}, Seed: 2}, // error entry, not a request error
		{Sources: []int{5, 11}, Seed: 3},
	}}
	var resp BatchResponse
	if code, body := postJSON(t, client, bURL, req, &resp); code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	if resp.GraphID != info.ID || resp.Kind != Spanning || resp.BatchID == 0 {
		t.Fatalf("batch response header wrong: %+v", resp)
	}
	if len(resp.Entries) != 3 || resp.Summary.Succeeded != 2 || resp.Summary.Failed != 1 {
		t.Fatalf("batch entries wrong: %+v", resp)
	}
	if resp.Entries[1].Error == "" || resp.Entries[1].Result != nil {
		t.Fatalf("invalid demand not an error entry: %+v", resp.Entries[1])
	}
	// HTTP batch entries == in-process serial results, byte for byte.
	for _, i := range []int{0, 2} {
		want, err := svc.Broadcast(info.ID, Spanning, req.Demands[i].Sources, req.Demands[i].Seed)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Entries[i].Result == nil || *resp.Entries[i].Result != want {
			t.Fatalf("entry %d diverged from serial path: %+v vs %+v", i, resp.Entries[i].Result, want)
		}
	}

	// The whole 3-demand batch made exactly one pack-cache checkout (the
	// two serial probes above add one each).
	var st Stats
	getJSON(t, client, srv.URL+"/v1/stats", &st)
	if st.PackRequests != 3 || st.PackComputes != 1 {
		t.Fatalf("batch pack accounting wrong: requests=%d computes=%d, want 3/1", st.PackRequests, st.PackComputes)
	}
	if st.Requests != 4 { // 2 batch successes + 2 serial probes
		t.Fatalf("requests=%d, want 4", st.Requests)
	}

	// Request-level error matrix.
	oversized := BatchRequest{Kind: Spanning, Demands: make([]BatchDemand, 9)}
	for i := range oversized.Demands {
		oversized.Demands[i] = BatchDemand{Sources: []int{0}, Seed: 1}
	}
	for _, tc := range []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown graph", srv.URL + "/v1/graphs/gdeadbeef/broadcast/batch", req, http.StatusNotFound},
		{"unknown kind", bURL, BatchRequest{Kind: "steiner", Demands: req.Demands}, http.StatusBadRequest},
		{"empty batch", bURL, BatchRequest{Kind: Spanning}, http.StatusBadRequest},
		{"oversized batch", bURL, oversized, http.StatusBadRequest},
	} {
		code, body := postJSON(t, client, tc.url, tc.body, nil)
		if code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, body, tc.want)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: missing structured error: %s", tc.name, body)
		}
	}
	if code, body := postJSON(t, client, bURL+"?stream=1", BatchRequest{Kind: "steiner", Demands: req.Demands}, nil); code != http.StatusBadRequest {
		t.Errorf("streaming request error not a status: %d %s", code, body)
	}
	var after Stats
	getJSON(t, client, srv.URL+"/v1/stats", &after)
	if after.Requests != st.Requests {
		t.Fatalf("rejected batches served demands: %+v", after)
	}
}

// TestHTTPBatchStreaming pins the streaming mode in both framings: the
// NDJSON stream carries one demand event per entry and ends with the
// terminal summary, each event's Seq is its 1-based position in this
// batch's stream, and the SSE framing wraps the same payloads in data:
// lines.
func TestHTTPBatchStreaming(t *testing.T) {
	svc := New(Config{PackSeed: 1, MaxConcurrent: 2})
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
	demands := []BatchDemand{
		{Sources: []int{0, 1, 2}, Seed: 4},
		{Sources: nil, Seed: 0}, // error entry still streams
		{Sources: []int{8, 9}, Seed: 5},
		{Sources: []int{3}, Seed: 6},
	}
	raw, err := json.Marshal(BatchRequest{Kind: Spanning, Demands: demands})
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL + "/v1/graphs/" + info.ID + "/broadcast/batch?stream=1"

	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("stream response: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var events []BatchEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev BatchEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream decode after %d events: %v", len(events), err)
		}
		events = append(events, ev)
		if ev.Type == EventSummary {
			break
		}
	}
	if len(events) != len(demands)+1 {
		t.Fatalf("streamed %d events for %d demands", len(events), len(demands))
	}
	seenIdx := make(map[int]bool)
	for i, ev := range events {
		if ev.BatchID != events[0].BatchID {
			t.Fatalf("stream mixed batches: %+v", ev)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d carries Seq %d", i, ev.Seq)
		}
		if i < len(demands) {
			if ev.Type != EventDemand || seenIdx[ev.Index] {
				t.Fatalf("event %d wrong or duplicate: %+v", i, ev)
			}
			seenIdx[ev.Index] = true
			if ev.Index == 1 && ev.Error == "" {
				t.Fatalf("error entry streamed without error: %+v", ev)
			}
		}
	}
	summary := events[len(events)-1].Summary
	if summary == nil || summary.Demands != len(demands) || summary.Succeeded != 3 || summary.Failed != 1 {
		t.Fatalf("terminal summary wrong: %+v", summary)
	}

	// SSE framing: same events, data:-prefixed.
	sseReq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sseReq.Header.Set("Content-Type", "application/json")
	sseReq.Header.Set("Accept", "text/event-stream")
	sresp, err := client.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("SSE content type: %s", sresp.Header.Get("Content-Type"))
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(sresp.Body); err != nil {
		t.Fatal(err)
	}
	var dataLines int
	for _, line := range strings.Split(body.String(), "\n") {
		if strings.HasPrefix(line, "data: ") {
			dataLines++
			var ev BatchEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("SSE data line not an event: %q: %v", line, err)
			}
		}
	}
	if dataLines != len(demands)+1 {
		t.Fatalf("SSE carried %d data lines, want %d", dataLines, len(demands)+1)
	}

	// Both streaming batches made one pack checkout each; the pack was
	// computed exactly once across everything.
	var st Stats
	getJSON(t, client, srv.URL+"/v1/stats", &st)
	if st.PackRequests != 2 || st.PackComputes != 1 {
		t.Fatalf("streaming pack accounting: requests=%d computes=%d, want 2/1", st.PackRequests, st.PackComputes)
	}
	if st.Requests != 6 { // 3 successes per streamed batch
		t.Fatalf("requests=%d, want 6", st.Requests)
	}
}
