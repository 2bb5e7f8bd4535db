package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into one layer. Op is the id of the benchmark op that caused it
// (negative ids are set-up work); every span of an op shares it.
type span struct {
	Op    int                `json:"op"`
	Name  string             `json:"name"`
	Start int64              `json:"start_ns"` // since the tracer started
	Dur   int64              `json:"dur_ns"`
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// Span names. "op" is a whole benchmark op; "http" one HTTP round trip
// of it; "service" the same op replayed as an in-process Service call;
// the rest are direct calls into one layer's public API.
const (
	spanOp          = "op"
	spanHTTP        = "http"
	spanService     = "service"
	spanCastRun     = "cast.run"
	spanCastFaulted = "cast.run_faulted"
	spanCastBuild   = "cast.build"
	spanGraphBuild  = "graph.build"
	spanSTPPack     = "stp.pack"
	spanCDSPack     = "cds.pack"
	spanSnapEncode  = "snap.encode"
	spanSnapSave    = "snap.save"
	spanSnapRead    = "snap.read"
	spanSnapDecode  = "snap.decode"
	spanCheckVerify = "check.verify"
	spanCDSDistPack = "cdsdist.pack"
	spanSTPDistPack = "stpdist.pack"
	spanSimWorkers1 = "sim.workers1"
	spanSimWorkers2 = "sim.workers2"
)

// tracer keeps spans in memory, one slice per recording goroutine slot,
// until the run writes them out. A nil tracer records nothing, which is
// how untraced runs keep spans off.
type tracer struct {
	t0    time.Time
	slots [2][]span // slot = worker index; slot 0 also serves replays
	n     atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span that started at start and ends now.
func (t *tracer) add(slot, op int, name string, start time.Time, attrs map[string]float64) {
	t.addEnd(slot, op, name, start, time.Now(), attrs)
}

// addEnd records a span from start to end.
func (t *tracer) addEnd(slot, op int, name string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.slots[slot] = append(t.slots[slot], span{
		Op:    op,
		Name:  name,
		Start: start.Sub(t.t0).Nanoseconds(),
		Dur:   end.Sub(start).Nanoseconds(),
		Attrs: attrs,
	})
	t.n.Add(1)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, slot := range t.slots {
		for _, s := range slot {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex is the span file read back and grouped for reduction.
type spanIndex struct {
	byName map[string][]span
	opDur  map[string]map[int]int64 // name -> op -> summed duration
}

func readSpans(path string) (*spanIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	x := &spanIndex{byName: map[string][]span{}, opDur: map[string]map[int]int64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span file %s: %w", path, err)
		}
		x.byName[s.Name] = append(x.byName[s.Name], s)
		if x.opDur[s.Name] == nil {
			x.opDur[s.Name] = map[int]int64{}
		}
		x.opDur[s.Name][s.Op] += s.Dur
	}
	return x, sc.Err()
}

// meanDur is the mean duration of the named spans, in nanoseconds.
func (x *spanIndex) meanDur(name string) float64 {
	ss := x.byName[name]
	if len(ss) == 0 {
		return 0
	}
	var sum int64
	for _, s := range ss {
		sum += s.Dur
	}
	return float64(sum) / float64(len(ss))
}

// meanAttr is the mean of one attribute over the named spans.
func (x *spanIndex) meanAttr(name, attr string) float64 {
	ss := x.byName[name]
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += s.Attrs[attr]
	}
	return sum / float64(len(ss))
}

// selfTime is a layer's self time in nanoseconds: per op, outer's
// summed duration minus the summed durations of whichever inner spans
// the op has, and the median of that over the ops with at least one.
// (A mean would be set by the noise of the few largest ops.)
func (x *spanIndex) selfTime(outer string, inner ...string) float64 {
	var selfs []float64
	for op, d := range x.opDur[outer] {
		self, any := float64(d), false
		for _, name := range inner {
			if in, has := x.opDur[name][op]; has {
				self -= float64(in)
				any = true
			}
		}
		if any {
			selfs = append(selfs, self)
		}
	}
	return median(selfs)
}

// reduce writes the span file, reads it back and turns it into the
// span-derived per-layer metrics (the workloads set the counter-derived
// ones themselves). Metrics of layers an op never reached stay unset
// and are reported as 0.
func (t *tracer) reduce(r *run) error {
	path := spanPath(r)
	if err := t.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	x, err := readSpans(path)
	if err != nil {
		return err
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	ms := func(ns float64) float64 { return ns / 1e6 }
	setIf := func(name string, has string, v float64) {
		if len(x.byName[has]) > 0 {
			r.set(name, v)
		}
	}
	setIf("http.rtt_us", spanHTTP, us(x.meanDur(spanHTTP)))
	setIf("http.req_bytes", spanHTTP, x.meanAttr(spanHTTP, "req_bytes"))
	setIf("http.resp_bytes", spanHTTP, x.meanAttr(spanHTTP, "resp_bytes"))
	setIf("client.encode_us", spanHTTP, us(x.meanAttr(spanHTTP, "encode_ns")))
	setIf("client.decode_us", spanHTTP, us(x.meanAttr(spanHTTP, "decode_ns")))
	setIf("serve.call_us", spanService, us(x.meanDur(spanService)))
	if len(x.byName[spanHTTP]) > 0 && len(x.byName[spanService]) > 0 {
		r.set("http.self_us", us(x.selfTime(spanHTTP, spanService)))
	}
	// The service's direct-layer children differ per workload (set-up
	// spans carry negative op ids and never pair with a service span).
	if len(x.byName[spanService]) > 0 {
		r.set("serve.self_us", us(x.selfTime(spanService, spanGraphBuild, spanSTPPack, spanCDSPack,
			spanSnapRead, spanSnapDecode, spanCheckVerify, spanCastBuild, spanCastRun, spanCastFaulted)))
	}
	setIf("cast.run_us", spanCastRun, us(x.meanDur(spanCastRun)))
	setIf("cast.run_faulted_us", spanCastFaulted, us(x.meanDur(spanCastFaulted)))
	if len(x.byName[spanCastRun]) > 0 {
		r.set("cast.run_allocs", x.meanAttr(spanCastRun, "allocs"))
		r.set("cast.rounds", x.meanAttr(spanCastRun, "rounds"))
	}
	setIf("cast.retries", spanCastFaulted, x.meanAttr(spanCastFaulted, "retries"))
	setIf("cast.build_ms", spanCastBuild, ms(x.meanDur(spanCastBuild)))
	setIf("graph.build_us", spanGraphBuild, us(x.meanDur(spanGraphBuild)))
	if len(x.byName[spanSTPPack]) > 0 {
		r.set("stp.pack_ms", ms(x.meanDur(spanSTPPack)))
	}
	if len(x.byName[spanCDSPack]) > 0 {
		r.set("cds.pack_ms", ms(x.meanDur(spanCDSPack)))
	}
	if packs := append(append([]span(nil), x.byName[spanSTPPack]...), x.byName[spanCDSPack]...); len(packs) > 0 {
		sum := 0.0
		for _, s := range packs {
			sum += s.Attrs["alloc_bytes"]
		}
		r.set("pack.alloc_mb", sum/float64(len(packs))/(1<<20))
	}
	setIf("snap.encode_ms", spanSnapEncode, ms(x.meanDur(spanSnapEncode)))
	setIf("snap.bytes", spanSnapEncode, x.meanAttr(spanSnapEncode, "bytes"))
	setIf("snap.save_ms", spanSnapSave, ms(x.meanDur(spanSnapSave)))
	setIf("snap.read_ms", spanSnapRead, ms(x.meanDur(spanSnapRead)))
	setIf("snap.decode_ms", spanSnapDecode, ms(x.meanDur(spanSnapDecode)))
	if d := x.meanDur(spanSnapDecode); d > 0 {
		r.set("snap.decode_mb_s", x.meanAttr(spanSnapDecode, "bytes")/(1<<20)/(d/1e9))
		if _, ok := r.metrics["snap.bytes"]; !ok {
			r.set("snap.bytes", x.meanAttr(spanSnapDecode, "bytes"))
		}
	}
	setIf("check.verify_ms", spanCheckVerify, ms(x.meanDur(spanCheckVerify)))
	setIf("cdsdist.pack_ms", spanCDSDistPack, ms(x.meanDur(spanCDSDistPack)))
	setIf("stpdist.pack_ms", spanSTPDistPack, ms(x.meanDur(spanSTPDistPack)))
	if dist := append(append([]span(nil), x.byName[spanCDSDistPack]...), x.byName[spanSTPDistPack]...); len(dist) > 0 {
		var rounds, msgs, bits, allocs, dur float64
		for _, s := range dist {
			rounds += s.Attrs["rounds"]
			msgs += s.Attrs["messages"]
			bits += s.Attrs["bits"]
			allocs += s.Attrs["allocs"]
			dur += float64(s.Dur)
		}
		k := float64(len(dist))
		r.set("sim.rounds", rounds/k)
		r.set("sim.messages", msgs/k)
		r.set("sim.bits", bits/k)
		r.set("sim.allocs_per_pack", allocs/k)
		if rounds > 0 {
			r.set("sim.ns_per_round", dur/rounds)
		}
	}
	w1, w2 := x.meanDur(spanSimWorkers1), x.meanDur(spanSimWorkers2)
	setIf("sim.workers1_ms", spanSimWorkers1, ms(w1))
	setIf("sim.workers2_ms", spanSimWorkers2, ms(w2))
	if w1 > 0 && w2 > 0 {
		r.set("sim.parallel_speedup", w1/w2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", t.n.Load(), path)
	return nil
}
