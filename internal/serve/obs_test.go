package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// scrapeMetrics fetches /metrics and parses the single-value samples
// (counters, gauges, histogram _sum/_count) into a map.
func scrapeMetrics(t *testing.T, client *http.Client, base string) (map[string]float64, string) {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	var buf bytes.Buffer
	vals := parseSamples(t, io.TeeReader(resp.Body, &buf))
	return vals, buf.String()
}

// parseSamples parses the single-value samples of an exposition text
// (histogram buckets and comments skipped) into name → value.
func parseSamples(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		vals[name] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestMetricsEndpoint drives the serving path over HTTP and asserts
// the exposition carries every ServiceStats counter, at least three
// histograms, and — the pack-accounting invariant — that
// PackRequests == PackComputes + CacheHits + Coalesced + StoreHits
// holds in the scraped text itself.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{PackSeed: 1, StoreDir: t.TempDir()})
	t.Cleanup(s.FlushStore) // runs before TempDir's removal: no write-behind save lands in a removed dir
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	id := mustRegister(t, s, testGraph())

	// One compute, one cache hit, one broadcast per kind-path flavor.
	for i := 0; i < 2; i++ {
		if _, err := s.Decompose(id, Spanning); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Broadcast(id, Spanning, []int{0, 1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BroadcastBatch(context.Background(), id, Spanning, []BatchDemand{{Sources: []int{0, 1}}, {Sources: []int{2, 3, 4, 5}}}); err != nil {
		t.Fatal(err)
	}

	vals, text := scrapeMetrics(t, srv.Client(), srv.URL)

	// Every ServiceStats counter/gauge family must be exposed.
	for _, name := range []string{
		"repro_serve_requests_total", "repro_serve_messages_total", "repro_serve_rounds_total",
		"repro_serve_pack_requests_total", "repro_serve_pack_computes_total",
		"repro_serve_cache_hits_total", "repro_serve_coalesced_total",
		"repro_serve_store_hits_total", "repro_serve_store_misses_total", "repro_serve_store_errors_total",
		"repro_serve_evictions_total", "repro_serve_faulted_requests_total",
		"repro_serve_messages_lost_total", "repro_serve_retries_total",
		"repro_serve_traces_total",
		"repro_serve_graphs", "repro_serve_resident",
		"repro_serve_max_vertex_congestion", "repro_serve_max_edge_congestion",
		"repro_serve_delivered_fraction",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	if hists := strings.Count(text, "# TYPE repro_serve_") - strings.Count(text, " counter\n") - strings.Count(text, " gauge\n"); hists < 3 {
		t.Fatalf("want >= 3 histograms in exposition, got %d:\n%s", hists, text)
	}

	// The invariant, asserted from the scraped text.
	got := vals["repro_serve_pack_requests_total"]
	want := vals["repro_serve_pack_computes_total"] + vals["repro_serve_cache_hits_total"] +
		vals["repro_serve_coalesced_total"] + vals["repro_serve_store_hits_total"]
	if got != want || got == 0 {
		t.Fatalf("pack accounting broken in /metrics: requests=%v computes+hits+coalesced+store=%v", got, want)
	}

	// Sanity: the single and the batch demands showed up in counters and
	// histograms alike.
	if vals["repro_serve_requests_total"] != 3 || vals["repro_serve_messages_total"] != 9 {
		t.Fatalf("request counters wrong: %+v", vals)
	}
	if vals["repro_serve_demand_messages_count"] != vals["repro_serve_requests_total"] ||
		vals["repro_serve_demand_messages_sum"] != vals["repro_serve_messages_total"] {
		t.Fatalf("demand-size histogram wrong: count=%v sum=%v",
			vals["repro_serve_demand_messages_count"], vals["repro_serve_demand_messages_sum"])
	}
	// Only computes pay the pack phase (the cache hit and both cached
	// broadcasts skip it), and every demand pays the run phase.
	if vals["repro_serve_phase_pack_ns_count"] != vals["repro_serve_pack_computes_total"] ||
		vals["repro_serve_phase_run_ns_count"] != vals["repro_serve_requests_total"] {
		t.Fatalf("phase histograms disagree with counters: pack %v/%v, run %v/%v",
			vals["repro_serve_phase_pack_ns_count"], vals["repro_serve_pack_computes_total"],
			vals["repro_serve_phase_run_ns_count"], vals["repro_serve_requests_total"])
	}
}

// TestMetricsScrapeWhileServing scrapes /metrics concurrently with live
// broadcasts — the guarantee that a scrape can never tear, block, or
// race the serving path (run under -race by make race).
func TestMetricsScrapeWhileServing(t *testing.T) {
	s := New(Config{PackSeed: 1, MaxConcurrent: 4})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	id := mustRegister(t, s, testGraph())

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.Broadcast(id, Spanning, []int{w, i % 8}, uint64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := srv.Client().Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	vals, _ := scrapeMetrics(t, srv.Client(), srv.URL)
	if vals["repro_serve_requests_total"] != 60 {
		t.Fatalf("requests_total = %v after 60 broadcasts", vals["repro_serve_requests_total"])
	}
}

// TestMetricsScrapeSatisfiesPackAccounting scrapes /metrics while
// goroutines broadcast (cache hits), decompose both kinds (hits and
// coalesced followers) and pack fresh graphs (computes), and requires
// every scrape to satisfy PackRequests == PackComputes + CacheHits +
// Coalesced + StoreHits exactly, not only at rest. make race runs it
// under the race detector.
//
// The scrape loop paces the writers: before each scrape it hands every
// writer a token worth opsPerScrape ops, which the writer spends while
// the scrape runs. Unpaced writers starve the HTTP server on one CPU.
func TestMetricsScrapeSatisfiesPackAccounting(t *testing.T) {
	s := New(Config{PackSeed: 1, MaxConcurrent: 4})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	id := mustRegister(t, s, testGraph())

	const opsPerScrape = 4
	stop := make(chan struct{})
	tokens := make([]chan struct{}, 3)
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for w := range tokens {
		tokens[w] = make(chan struct{}, 1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i%opsPerScrape == 0 {
					select {
					case <-stop:
						return
					case <-tokens[w]:
					}
				}
				var err error
				switch {
				case w == 0 && i%2 == 1:
					var fresh string
					if fresh, err = s.RegisterGraph(graph.Cycle(6 + i%40)); err == nil {
						_, err = s.Decompose(fresh, Spanning)
					}
				case i%4 == 3:
					_, err = s.Decompose(id, []Kind{Dominating, Spanning}[w%2])
				default:
					_, err = s.Broadcast(id, Spanning, []int{w, i % 8}, uint64(i))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for scrape := 1; scrape <= 300; scrape++ {
		for _, tok := range tokens {
			select {
			case tok <- struct{}{}:
			default: // the writer is still spending its last token
			}
		}
		vals, _ := scrapeMetrics(t, srv.Client(), srv.URL)
		req := vals["repro_serve_pack_requests_total"]
		sum := vals["repro_serve_pack_computes_total"] + vals["repro_serve_cache_hits_total"] +
			vals["repro_serve_coalesced_total"] + vals["repro_serve_store_hits_total"]
		if req != sum {
			t.Fatalf("scrape %d: pack_requests %v, but computes+hits+coalesced+store_hits = %v", scrape, req, sum)
		}
	}
	if st := s.Stats(); st.PackComputes < 3 || st.CacheHits == 0 {
		t.Fatalf("too little traffic ran during the scrapes: %d computes, %d cache hits", st.PackComputes, st.CacheHits)
	}
}

// bumpWriter bumps one pack-accounting bucket on every Write, as a
// request landing in that bucket would between two lines of a scrape.
type bumpWriter struct {
	bytes.Buffer
	bucket *atomic.Uint64
}

func (w *bumpWriter) Write(p []byte) (int, error) {
	w.bucket.Add(1)
	return w.Buffer.Write(p)
}

// TestScrapeRenderedDuringWritesIsExact renders the exposition into a
// bumpWriter for each of the four pack buckets in turn, so that bucket
// moves between every two lines of one scrape on any number of CPUs,
// and requires the scrape to satisfy PackRequests == PackComputes +
// CacheHits + Coalesced + StoreHits exactly. The counter group is read
// once per scrape, so it does; counters registered one at a time are
// each read as their own line is written, and fail.
func TestScrapeRenderedDuringWritesIsExact(t *testing.T) {
	s := New(Config{PackSeed: 1})
	for i, bucket := range []*atomic.Uint64{&s.packComputes, &s.cacheHits, &s.coalesced, &s.storeHits} {
		before := bucket.Load()
		w := &bumpWriter{bucket: bucket}
		if err := s.Metrics().WritePrometheus(w); err != nil {
			t.Fatal(err)
		}
		if moved := bucket.Load() - before; moved < 10 {
			t.Fatalf("bucket %d moved %d times during the scrape, want one per written line", i, moved)
		}
		vals := parseSamples(t, &w.Buffer)
		req := vals["repro_serve_pack_requests_total"]
		sum := vals["repro_serve_pack_computes_total"] + vals["repro_serve_cache_hits_total"] +
			vals["repro_serve_coalesced_total"] + vals["repro_serve_store_hits_total"]
		if req != sum {
			t.Fatalf("bucket %d moving: pack_requests %v, but computes+hits+coalesced+store_hits = %v", i, req, sum)
		}
	}
}

// TestTracesEndpoint pins the trace round trip: a decomposition and a
// broadcast served over HTTP get distinct X-Request-Ids, their traces
// land in the ring with the phases each executed as spans, and GET
// /v1/traces returns them newest-first. Each request packs its own kind,
// so both traces carry a pack span and the pack profile. Lookup-only
// requests must not pollute the ring.
func TestTracesEndpoint(t *testing.T) {
	s := New(Config{PackSeed: 1})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	id := mustRegister(t, s, testGraph())

	var reqIDs []string
	for _, call := range []struct {
		path string
		body any
	}{
		{"/decomposition", DecomposeRequest{Kind: Spanning}},
		{"/broadcast", BroadcastRequest{Kind: Dominating, Sources: []int{0, 1}, Seed: 3}},
	} {
		body, _ := json.Marshal(call.body)
		resp, err := srv.Client().Post(srv.URL+"/v1/graphs/"+id+call.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", call.path, resp.StatusCode)
		}
		reqIDs = append(reqIDs, resp.Header.Get("X-Request-Id"))
	}
	if reqIDs[0] == "" || reqIDs[0] == reqIDs[1] {
		t.Fatalf("request ids degenerate: %q", reqIDs)
	}

	// Stats and traces lookups are span-free and must stay out of the ring.
	for _, path := range []string{"/v1/stats", "/v1/traces", "/metrics"} {
		r, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	var tr TracesResponse
	r, err := srv.Client().Get(srv.URL + "/v1/traces?n=5")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if tr.Total != 2 || len(tr.Traces) != 2 {
		t.Fatalf("ring holds %d traces (total %d), want exactly the two requests", len(tr.Traces), tr.Total)
	}
	for i, want := range [][]string{{"registry", "pack", "clone", "run"}, {"registry", "pack"}} {
		got := tr.Traces[i]
		if got.ID != reqIDs[1-i] {
			t.Fatalf("trace %d id %q, want X-Request-Id %q (newest first)", i, got.ID, reqIDs[1-i])
		}
		names := make(map[string]bool)
		for _, sp := range got.Spans {
			names[sp.Name] = true
			if sp.DurationNs < 0 || sp.StartNs+sp.DurationNs > got.DurationNs {
				t.Fatalf("span %+v inconsistent with trace duration %d", sp, got.DurationNs)
			}
		}
		for _, name := range want {
			if !names[name] {
				t.Fatalf("trace %s missing %q span, has %v", got.ID, name, got.Spans)
			}
		}
		if got.Attached["pack_profile"] == nil {
			t.Fatalf("trace %s missing pack_profile attachment: %+v", got.ID, got.Attached)
		}
	}

	if r, err = srv.Client().Get(srv.URL + "/v1/traces?n=bogus"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit accepted: %d", r.StatusCode)
	}
}

// TestDecomposeProfile pins the PackProfile surface: the computing
// request gets kind-specific packer internals on its DecompInfo, the
// cached follow-up does not (nothing ran), and the stop-check split
// accounts for every post-first-iteration stop test.
func TestDecomposeProfile(t *testing.T) {
	s := New(Config{PackSeed: 1})
	id := mustRegister(t, s, testGraph())

	info, err := s.Decompose(id, Spanning)
	if err != nil {
		t.Fatal(err)
	}
	p := info.Profile
	if p == nil {
		t.Fatal("computing Decompose returned no profile")
	}
	if p.Kind != Spanning || p.Trees != info.Trees {
		t.Fatalf("profile header wrong: %+v vs info %+v", p, info)
	}
	if p.Iterations <= 0 || p.MaxLoad <= 0 {
		t.Fatalf("spanning profile missing MWU internals: %+v", p)
	}
	if p.StopChecksExact+p.StopChecksSkipped == 0 {
		t.Fatalf("no stop checks recorded: %+v", p)
	}
	if p.Layers != 0 || p.Matched != 0 {
		t.Fatalf("spanning profile carries dominating fields: %+v", p)
	}

	cached, err := s.Decompose(id, Spanning)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.Profile != nil {
		t.Fatalf("cached Decompose should carry no profile: %+v", cached)
	}

	dom, err := s.Decompose(id, Dominating)
	if err != nil {
		t.Fatal(err)
	}
	dp := dom.Profile
	if dp == nil || dp.Kind != Dominating {
		t.Fatalf("dominating profile missing: %+v", dp)
	}
	if dp.Layers <= 0 || dp.Classes <= 0 || dp.Matched+dp.Unmatched == 0 {
		t.Fatalf("dominating profile missing layer internals: %+v", dp)
	}
	if dp.Iterations != 0 || dp.DedupHits != 0 {
		t.Fatalf("dominating profile carries spanning fields: %+v", dp)
	}
}

// TestLoadReportPhases pins the per-phase breakdown under closed-loop
// load: two goroutines serving three broadcasts on a pre-warmed
// decomposition add one registry, clone and run observation per demand,
// every observation lands in a bucket, and the pack phase records only
// the warm-up compute.
func TestLoadReportPhases(t *testing.T) {
	s := New(Config{PackSeed: 1, MaxConcurrent: 2})
	id := mustRegister(t, s, testGraph())
	if _, err := s.Decompose(id, Spanning); err != nil {
		t.Fatal(err)
	}
	var before [numPhases]uint64
	for ph := range before {
		before[ph] = s.phaseHist[ph].Count()
	}

	const demands = 3
	next := make(chan int, demands)
	for i := 0; i < demands; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := s.Broadcast(id, Spanning, []int{0, 1, 2, 3}, uint64(9+i)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	for _, ph := range []int{phaseRegistry, phaseClone, phaseRun} {
		h := s.phaseHist[ph]
		if got := h.Count() - before[ph]; got != demands {
			t.Fatalf("phase %q count grew by %d, want %d", phaseNames[ph], got, demands)
		}
		var inBuckets uint64
		for b := 0; b < obs.NumBuckets; b++ {
			inBuckets += h.BucketCount(b)
		}
		if inBuckets != h.Count() {
			t.Fatalf("phase %q buckets hold %d of %d observations", phaseNames[ph], inBuckets, h.Count())
		}
	}
	if got := s.phaseHist[phasePack].Count(); got != 1 {
		t.Fatalf("pack phase count %d, want 1 (decomposition is pre-warmed)", got)
	}
}
