package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// server is an in-process Service behind serve.NewHandler on a
// 127.0.0.1 listener, plus the benchmark's client for it.
type server struct {
	svc      *serve.Service
	storeDir string
	srv      *http.Server
	done     chan error // Serve's return value
	cl       *client
}

func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := serve.New(cfg)
	s := &server{svc: svc, storeDir: cfg.StoreDir, srv: &http.Server{Handler: serve.NewHandler(svc)}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	s.cl = &client{
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2, // the benchmark's connection budget
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
	return s, nil
}

// stop drains the service's write-behind saves, shuts the listener down
// and waits for the serving goroutine to exit.
func (s *server) stop() {
	s.svc.FlushStore()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // connections are idle by now; a timeout only leaks this run's sockets
	<-s.done
	s.cl.hc.CloseIdleConnections()
}

// client sends JSON requests and times each round trip's parts.
type client struct {
	base string
	hc   *http.Client
}

// call is the timing and size of one HTTP round trip: encoding the
// request, the round trip until the last response byte, and decoding.
type call struct {
	start               time.Time
	encode, rtt, decode time.Duration
	reqBytes, respBytes int
}

// do sends one request (in == nil sends no body) and hands the response
// body to decode. A non-200 status is an error.
func (c *client) do(method, path string, in any, decode func([]byte) error) (call, error) {
	st := call{start: time.Now()}
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return st, err
		}
		body = b
	}
	t1 := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, err
	}
	t2 := time.Now()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if decode != nil {
		if err := decode(data); err != nil {
			return st, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	st.encode, st.rtt, st.decode = t1.Sub(st.start), t2.Sub(t1), time.Since(t2)
	st.reqBytes, st.respBytes = len(body), len(data)
	return st, nil
}

func jsonInto(v any) func([]byte) error {
	return func(b []byte) error { return json.Unmarshal(b, v) }
}

// ndjsonInto decodes a streamed batch: one event per line.
func ndjsonInto(events *[]serve.BatchEvent) func([]byte) error {
	return func(b []byte) error {
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		for sc.Scan() {
			var ev serve.BatchEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return err
			}
			*events = append(*events, ev)
		}
		return sc.Err()
	}
}

// record adds the http span of one call to the tracer.
func (t *tracer) record(slot, op int, c call) {
	if t == nil {
		return
	}
	t.slots[slot] = append(t.slots[slot], span{
		Op:    op,
		Name:  spanHTTP,
		Start: c.start.Add(c.encode).Sub(t.t0).Nanoseconds(),
		Dur:   c.rtt.Nanoseconds(),
		Attrs: map[string]float64{
			"encode_ns":  float64(c.encode.Nanoseconds()),
			"decode_ns":  float64(c.decode.Nanoseconds()),
			"req_bytes":  float64(c.reqBytes),
			"resp_bytes": float64(c.respBytes),
		},
	})
	t.n.Add(1)
}

func (c *client) register(gi graphInput) (serve.GraphInfo, call, error) {
	var info serve.GraphInfo
	st, err := c.do("POST", "/v1/graphs", serve.RegisterRequest{N: gi.N, Edges: gi.Edges}, jsonInto(&info))
	return info, st, err
}

func (c *client) decompose(id string, kind serve.Kind) (serve.DecompInfo, call, error) {
	var info serve.DecompInfo
	st, err := c.do("POST", "/v1/graphs/"+id+"/decomposition", serve.DecomposeRequest{Kind: kind}, jsonInto(&info))
	return info, st, err
}

func (c *client) stats() (serve.Stats, error) {
	var s serve.Stats
	_, err := c.do("GET", "/v1/stats", nil, jsonInto(&s))
	return s, err
}

// scrape fetches GET /metrics and parses its unlabelled samples.
func (c *client) scrape() (map[string]float64, call, error) {
	var text []byte
	st, err := c.do("GET", "/metrics", nil, func(b []byte) error { text = b; return nil })
	if err != nil {
		return nil, st, err
	}
	m, err := parseExposition(text)
	return m, st, err
}

// parseExposition reads the unlabelled "name value" samples of a
// Prometheus text exposition (histogram buckets carry labels and are
// skipped; _sum and _count are kept).
func parseExposition(text []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	if len(out) == 0 {
		return nil, errors.New("empty metrics exposition")
	}
	return out, nil
}

// checkAccounting checks the pack-accounting invariant in a stats
// snapshot.
func checkAccounting(r *run, s serve.Stats) {
	if s.PackRequests != s.PackComputes+s.CacheHits+s.Coalesced+s.StoreHits {
		r.fail("pack accounting: requests %d != computes %d + cache hits %d + coalesced %d + store hits %d",
			s.PackRequests, s.PackComputes, s.CacheHits, s.Coalesced, s.StoreHits)
	}
}

// setServeLayer reports the service's own instruments over a traced
// window: counter deltas from /v1/stats and phase-histogram sums from
// /metrics, per op of the window.
func setServeLayer(r *run, s0, s1 serve.Stats, m0, m1 map[string]float64, ops int) {
	r.set("serve.pack_requests", float64(s1.PackRequests-s0.PackRequests))
	r.set("serve.pack_computes", float64(s1.PackComputes-s0.PackComputes))
	r.set("serve.cache_hits", float64(s1.CacheHits-s0.CacheHits))
	r.set("serve.coalesced", float64(s1.Coalesced-s0.Coalesced))
	r.set("serve.store_hits", float64(s1.StoreHits-s0.StoreHits))
	r.set("serve.store_errors", float64(s1.StoreErrors-s0.StoreErrors))
	r.set("serve.evictions", float64(s1.Evictions-s0.Evictions))
	if req := s1.PackRequests - s0.PackRequests; req > 0 {
		hits := (s1.CacheHits - s0.CacheHits) + (s1.Coalesced - s0.Coalesced) + (s1.StoreHits - s0.StoreHits)
		r.set("serve.hit_ratio", float64(hits)/float64(req))
	}
	for _, ph := range []string{"registry", "store_load", "pack", "clone", "run", "persist"} {
		key := "repro_serve_phase_" + ph + "_ns"
		sum := m1[key+"_sum"] - m0[key+"_sum"]
		if ops > 0 {
			r.set("serve.phase."+ph+"_ms", sum/1e6/float64(ops))
		}
		if ph == "clone" {
			if n := m1[key+"_count"] - m0[key+"_count"]; n > 0 {
				r.set("serve.clone_wait_us", sum/1e3/n)
			}
		}
	}
}
