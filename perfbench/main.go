// Command perfbench is the repository benchmark. It drives the
// decomposition service (over a loopback HTTP listener) and the
// distributed packers through their public entry points on four
// workloads, checks every output, and prints one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run records the benchmark's own spans, replays the same inputs one
// layer deeper at a time, writes the spans to .bench_build/spans/ and
// reduces them to per-layer metrics. README.md explains each workload
// and metric; BENCHMARK.json at the repository root declares them.
//
// Usage (from the repository root; perfbench/run.sh builds and runs):
//
//	bash perfbench/run.sh --workload broadcast --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	run func(r *run) error
	// tail is the fixed tail percentile op_tail_ms reports; the window
	// keeps going until at least 10 samples lie beyond it.
	tail float64
	// block is the length of the workload's op blocks: each block holds
	// the same mix of op types, and windows end on a block boundary, so
	// every run measures the same mix whatever the seed.
	block int
}

var workloads = map[string]workload{
	"broadcast":   {runBroadcast, 0.99, bcastBlock},
	"cold-pack":   {runColdPack, 0.95, blockLen},
	"warm-reload": {runWarmReload, 0.95, len(reloadCatalogue)},
	"sim-dist":    {runSimDist, 0.90, len(distDeck)},
}

// setupReps is how many times each workload sets itself up; setup_s is
// the median.
const setupReps = 3

// maxWindow caps a measurement window that is still short of its
// minimum op count, so a run always ends well inside 180 seconds.
const maxWindow = 60 * time.Second

// run is the state of one benchmark invocation.
type run struct {
	name   string
	seed   uint64
	window time.Duration
	traced bool
	tail   float64
	block  int
	dir    string // scratch directory, removed on exit

	attempted, failed int
	problems          int
	metrics           map[string]float64
	spans             *tracer // nil unless traced
}

// minOps is the op count a window must reach for op_tail_ms to have 10
// samples beyond its percentile, rounded up to whole blocks. Every run
// completes these ops, so the seed-determined metrics are taken over
// exactly them.
func (r *run) minOps() int {
	n := int(math.Ceil(10/(1-r.tail) - 1e-9))
	return (n + r.block - 1) / r.block * r.block
}

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	r.problems++
	if r.problems <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json (a test keeps them equal).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"rss_peak_mb", "MB"},
	{"msgs_per_round", "msgs/round"},
	{"pack_size_ratio", "ratio"},
	{"sim_rounds", "rounds"},
}

var perLayer = []metricDef{
	{"http.rtt_us", "us"},
	{"http.self_us", "us"},
	{"http.req_bytes", "bytes"},
	{"http.resp_bytes", "bytes"},
	{"client.encode_us", "us"},
	{"client.decode_us", "us"},
	{"serve.call_us", "us"},
	{"serve.self_us", "us"},
	{"serve.phase.registry_ms", "ms"},
	{"serve.phase.store_load_ms", "ms"},
	{"serve.phase.pack_ms", "ms"},
	{"serve.phase.clone_ms", "ms"},
	{"serve.phase.run_ms", "ms"},
	{"serve.phase.persist_ms", "ms"},
	{"serve.clone_wait_us", "us"},
	{"serve.pack_requests", "count"},
	{"serve.pack_computes", "count"},
	{"serve.cache_hits", "count"},
	{"serve.coalesced", "count"},
	{"serve.store_hits", "count"},
	{"serve.store_errors", "count"},
	{"serve.evictions", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.conn_scaling", "ratio"},
	{"cast.run_us", "us"},
	{"cast.run_faulted_us", "us"},
	{"cast.run_allocs", "count"},
	{"cast.build_ms", "ms"},
	{"cast.rounds", "rounds"},
	{"cast.retries", "count"},
	{"stp.pack_ms", "ms"},
	{"stp.iterations", "count"},
	{"stp.stop_exact", "count"},
	{"stp.stop_skipped", "count"},
	{"stp.dedup_hits", "count"},
	{"cds.pack_ms", "ms"},
	{"cds.layers", "count"},
	{"cds.matched", "count"},
	{"cds.unmatched", "count"},
	{"pack.alloc_mb", "MB"},
	{"graph.build_us", "us"},
	{"snap.encode_ms", "ms"},
	{"snap.save_ms", "ms"},
	{"snap.bytes", "bytes"},
	{"snap.read_ms", "ms"},
	{"snap.decode_ms", "ms"},
	{"snap.decode_mb_s", "MB/s"},
	{"check.verify_ms", "ms"},
	{"cdsdist.pack_ms", "ms"},
	{"stpdist.pack_ms", "ms"},
	{"sim.rounds", "rounds"},
	{"sim.messages", "count"},
	{"sim.bits", "bits"},
	{"sim.ns_per_round", "ns"},
	{"sim.allocs_per_pack", "count"},
	{"sim.workers1_ms", "ms"},
	{"sim.workers2_ms", "ms"},
	{"sim.parallel_speedup", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.allocs_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "broadcast | cold-pack | warm-reload | sim-dist")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload broadcast|cold-pack|warm-reload|sim-dist --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatal(err)
	}
	r := &run{
		name:    *name,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		tail:    w.tail,
		block:   w.block,
		dir:     dir,
		metrics: map[string]float64{},
	}
	if r.traced {
		r.spans = newTracer()
	}
	err = w.run(r)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
		if err := r.spans.reduce(r); err != nil {
			fatal(err)
		}
	}
	out := resultOut{
		Correct:   r.problems == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			if !r.traced {
				fatal(fmt.Errorf("workload %s did not report %s", r.name, d.name))
			}
			v = 0 // layer not exercised by this workload
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB is the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupMedian runs setup setupReps times and reports the median
// duration as setup_s; the value of the last repetition is kept.
func setupMedian[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC() // each repetition (and the window) starts from a collected heap
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	runtime.GC()
	r.set("setup_s", median(times))
	return last, nil
}

// window is the outcome of one closed-loop measurement window.
type window struct {
	ops    int       // ops completed: exactly indices 0..ops-1
	latMs  []float64 // per-op latency, indexed by op
	failed int
	// blockSecs is each block's duration: from its first op's dispatch
	// to the next block's (the last block ends at the last completion).
	blockSecs []float64
}

// opsPerSec is the window's throughput over its median block, so a
// stall that hits a few blocks (the host steals CPU from this box in
// bursts) does not move it.
func (w window) opsPerSec(block int) float64 {
	return float64(block) / median(append([]float64(nil), w.blockSecs...))
}

// loop runs op(worker, i) for i = 0, 1, 2, ... on conns workers, each
// sending its next op only after the previous one returned, until the
// window has passed and at least minOps ops were dispatched (or
// maxWindow passed), always stopping on a block boundary. Dispatched
// ops always complete, so the completed set is a prefix of the op
// sequence made of whole blocks. An op that returns an error counts as
// failed; its latency still counts.
func (r *run) loop(conns int, dur time.Duration, minOps int, op func(worker, i int) error) window {
	type sample struct {
		i   int
		lat float64
		err bool
	}
	var (
		next    = make(chan int)
		results = make(chan []sample, conns)
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		go func(w int) {
			var mine []sample
			for i := range next {
				t := time.Now()
				err := op(w, i)
				mine = append(mine, sample{i, float64(time.Since(t).Nanoseconds()) / 1e6, err != nil})
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
				}
			}
			results <- mine
		}(w)
	}
	var blockStarts []time.Duration
	i := 0
	for {
		el := time.Since(start)
		if i%r.block == 0 && ((el >= dur && i >= minOps) || el >= maxWindow) {
			break
		}
		next <- i
		if i%r.block == 0 {
			blockStarts = append(blockStarts, time.Since(start))
		}
		i++
	}
	close(next)
	out := window{ops: i, latMs: make([]float64, i)}
	for w := 0; w < conns; w++ {
		for _, s := range <-results {
			out.latMs[s.i] = s.lat
			if s.err {
				out.failed++
			}
		}
	}
	end := time.Since(start)
	for k, s := range blockStarts {
		e := end
		if k+1 < len(blockStarts) {
			e = blockStarts[k+1]
		}
		out.blockSecs = append(out.blockSecs, (e - s).Seconds())
	}
	return out
}

// report folds a window into the end-to-end latency and rate metrics
// and the attempted/failed counts.
func (r *run) report(w window) {
	r.attempted += w.ops
	r.failed += w.failed
	if r.traced {
		return
	}
	if w.ops < r.minOps() {
		r.fail("window completed %d ops, fewer than the %d op_tail_ms needs", w.ops, r.minOps())
	}
	// Peak RSS is read before the output checks, which are the
	// benchmark's own work.
	r.set("rss_peak_mb", peakRSSMB())
	lat := append([]float64(nil), w.latMs...)
	r.set("ops_per_s", w.opsPerSec(r.block))
	r.set("op_p50_ms", median(lat))
	r.set("op_tail_ms", quantile(lat, r.tail))
}

// memSnap is a runtime.MemStats reading for per-window deltas.
type memSnap struct{ gc, pauseNs, allocBytes, mallocs uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{uint64(m.NumGC), m.PauseTotalNs, m.TotalAlloc, m.Mallocs}
}

// setRuntime reports the Go runtime's work over a traced window of ops.
func (r *run) setRuntime(before, after memSnap, ops int) {
	r.set("runtime.gc_cycles", float64(after.gc-before.gc))
	r.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
	if ops > 0 {
		r.set("runtime.alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/float64(ops)/(1<<20))
		r.set("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops))
	}
}

// tracerFor is the tracer op i records into: a traced run records the
// ops of even blocks only, so the odd blocks, run in the same window
// with the same op mix, are its untraced baseline.
func (r *run) tracerFor(i int) *tracer {
	if (i/r.block)%2 == 1 {
		return nil
	}
	return r.spans
}

// traced reports whether op i's spans were recorded.
func (r *run) tracedOp(i int) bool { return r.tracerFor(i) != nil }

// overhead reports trace.overhead_pct: the p50 of a traced window's
// traced blocks against that of its untraced blocks.
func (r *run) overhead(w window) {
	var on, off []float64
	for i, l := range w.latMs {
		if r.tracedOp(i) {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	if u := median(off); u > 0 {
		r.set("trace.overhead_pct", 100*(median(on)-u)/u)
	}
}

// spanPath is where a traced run writes its spans.
func spanPath(r *run) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
}
