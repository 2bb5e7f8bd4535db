// Command serve runs the concurrent decomposition-and-broadcast service
// as an HTTP server (the paper's headline application — Ω(k/log n)
// fractionally disjoint trees spreading broadcast traffic — turned into
// a serving layer):
//
//	go run ./cmd/serve -addr :8080
//
//	curl -s localhost:8080/v1/graphs -d '{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0],[0,2],[1,3]]}'
//	curl -s localhost:8080/v1/graphs/<id>/decomposition -d '{"kind":"spanning"}'
//	curl -s localhost:8080/v1/graphs/<id>/broadcast -d '{"kind":"spanning","sources":[0,2],"seed":7}'
//	curl -s localhost:8080/v1/stats
//
// With -store DIR the service persists every computed decomposition to
// a snapshot store (internal/snap) and consults it before packing, so a
// restart over the same directory serves all previously packed graphs
// without recomputing anything. -max-resident N bounds how many
// decompositions stay in memory per registry segment (evicted entries
// reload from the store on demand), and -ingest FILE pre-loads a
// snapshot written by `cmd/decompose -o` before serving.
//
// Every request is logged through log/slog with its request id (the
// X-Request-Id the serving layer assigns and echoes), GET /metrics
// serves the Prometheus text exposition, GET /v1/traces the recent
// per-request phase traces, and -pprof ADDR opens a net/http/pprof
// side listener kept off the API address so profiling endpoints are
// never exposed to API clients.
//
// With -selftest the command instead runs a smoke test of its own
// handler over a real listener — register, decompose, broadcast, one
// streamed batch, and a stats audit — exiting nonzero on any failure.
// `make ci` runs it as serve-smoke, and `go test ./cmd/serve` runs the
// same smoke.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/snap"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 8, "bound on simultaneously executing demands")
	packSeed := flag.Uint64("pack-seed", 1, "seed for packing computations")
	storeDir := flag.String("store", "", "snapshot store directory (empty disables persistence)")
	maxResident := flag.Int("max-resident", 0, "resident decompositions per registry segment (0 = unlimited)")
	pprofAddr := flag.String("pprof", "", "net/http/pprof side-listener address (empty disables)")
	selftest := flag.Bool("selftest", false, "run a smoke test of the serving loop in-process and exit")
	var ingest []string
	flag.Func("ingest", "snapshot `file` to pre-load before serving (repeatable)", func(path string) error {
		ingest = append(ingest, path)
		return nil
	})
	flag.Parse()

	svc := serve.New(serve.Config{
		MaxConcurrent: *maxConcurrent,
		PackSeed:      *packSeed,
		StoreDir:      *storeDir,
		MaxResident:   *maxResident,
	})
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *selftest {
		if err := smoke(newHandler(logger, svc)); err != nil {
			fmt.Fprintf(os.Stderr, "selftest: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("selftest: OK")
		return
	}
	for _, path := range ingest {
		sn, err := readSnapshot(path)
		if err != nil {
			log.Fatalf("ingest %s: %v", path, err)
		}
		id, err := svc.Ingest(sn)
		if err != nil {
			log.Fatalf("ingest %s: %v", path, err)
		}
		log.Printf("ingested %s: graph %s, %s decomposition", path, id, sn.Kind)
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}
	log.Printf("serving on %s (max-concurrent=%d store=%q pprof=%q)", *addr, *maxConcurrent, *storeDir, *pprofAddr)
	if err := run(*addr, svc, logger); err != nil {
		log.Fatal(err)
	}
}

// servePprof runs the net/http/pprof endpoints on their own listener
// and mux, so profiling is reachable only on the side address — the
// API mux never sees /debug/pprof and nothing registers on
// http.DefaultServeMux.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof listening on %s", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("pprof listener: %v", err)
	}
}

// readSnapshot loads and decodes one snapshot file (full checksum and
// structural validation; oracle verification happens in Ingest).
func readSnapshot(path string) (*snap.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return snap.Decode(data)
}

// run serves until SIGINT/SIGTERM, then drains in-flight requests with
// http.Server.Shutdown. Broadcast handlers observe the client's request
// context, so even long demand runs cancel promptly when their client
// goes away and cannot hold the drain open.
func run(addr string, svc *serve.Service, logger *slog.Logger) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Addr:              addr,
		Handler:           newHandler(logger, svc),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down (draining in-flight requests)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	svc.FlushStore() // let write-behind snapshot saves land before exit
	log.Printf("bye")
	return nil
}

// newHandler is the binary's HTTP handler: the serving API behind
// per-request logging. run serves it and -selftest drives it.
func newHandler(logger *slog.Logger, svc *serve.Service) http.Handler {
	return logRequests(logger, serve.NewHandler(svc))
}

// logRequests emits one structured log line per request: method, path,
// status, duration, and the request id the serving layer assigned
// (read back from the X-Request-Id response header the inner handler
// set, so the log line and the trace ring agree on the id).
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration", time.Since(start),
			"request_id", w.Header().Get("X-Request-Id"),
		)
	})
}

// statusWriter captures the response status for logging. Flush must be
// forwarded explicitly: the wrapper would otherwise hide the underlying
// http.Flusher and stall the streaming batch endpoint's per-event
// flushes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

var _ http.Flusher = (*statusWriter)(nil)

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// smoke drives a handler over a real listener through the serving loop
// once: register a graph, decompose it, broadcast over it, stream one
// batch as NDJSON, and audit /v1/stats. internal/serve's tests pin the
// serving contracts in depth; this checks the binary's own wiring.
func smoke(h http.Handler) error {
	srv := httptest.NewServer(h)
	defer srv.Close()
	g := graph.Hypercube(4)
	reg := serve.RegisterRequest{N: g.N()}
	for _, e := range g.Edges() {
		reg.Edges = append(reg.Edges, [2]int{int(e.U), int(e.V)})
	}
	var info serve.GraphInfo
	if err := call(srv, "/v1/graphs", reg, &info); err != nil {
		return err
	}
	base := "/v1/graphs/" + info.ID
	var dec serve.DecompInfo
	if err := call(srv, base+"/decomposition", serve.DecomposeRequest{Kind: serve.Spanning}, &dec); err != nil {
		return err
	}
	var res serve.BroadcastResponse
	if err := call(srv, base+"/broadcast", serve.BroadcastRequest{Kind: serve.Spanning, Sources: []int{0, 5}, Seed: 1}, &res); err != nil {
		return err
	}
	batch := serve.BatchRequest{Kind: serve.Spanning, Demands: []serve.BatchDemand{{Sources: []int{1, 2}, Seed: 2}, {Sources: []int{3}, Seed: 3}}}
	var events []serve.BatchEvent
	if err := call(srv, base+"/broadcast/batch?stream=1", batch, &events); err != nil {
		return err
	}
	if n := len(events); n != len(batch.Demands)+1 || events[n-1].Type != serve.EventSummary || events[n-1].Seq != uint64(n) {
		return fmt.Errorf("stream of %d demands: %+v", len(batch.Demands), events)
	}
	var st serve.Stats
	if err := call(srv, "/v1/stats", nil, &st); err != nil {
		return err
	}
	if st.Requests != 3 || st.Messages != 5 || st.PackRequests != st.PackComputes+st.CacheHits+st.Coalesced+st.StoreHits {
		return fmt.Errorf("stats after one broadcast and a 2-demand batch: %+v", st)
	}
	fmt.Printf("selftest: %d trees, %d demands served in %d rounds\n", dec.Trees, st.Requests, st.Rounds)
	return nil
}

// call POSTs body as JSON (or GETs when body is nil) and decodes the
// reply into out: one JSON value, or the NDJSON events of a stream into
// a *[]serve.BatchEvent.
func call(srv *httptest.Server, path string, body, out any) error {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = srv.Client().Get(srv.URL + path)
	} else {
		raw, _ := json.Marshal(body) // the API request types always marshal
		resp, err = srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	events, ok := out.(*[]serve.BatchEvent)
	if !ok {
		return dec.Decode(out)
	}
	for dec.More() {
		var ev serve.BatchEvent
		if err := dec.Decode(&ev); err != nil {
			return err
		}
		*events = append(*events, ev)
	}
	return nil
}
