package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cast"
	"repro/internal/cds"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stp"
)

// The broadcast workload is the steady-state serving path: every
// decomposition is cached during set-up, and a closed loop on two
// connections sends a mix of single, faulted, batched and streamed
// broadcasts plus periodic metrics scrapes.

type bcastState struct {
	srv *server
	ids []string // graph id per graph index
	dec []serve.DecompInfo
}

// bcastOut is what the service answered to one op.
type bcastOut struct {
	res     *cast.Result
	fault   *serve.FaultInfo
	entries []serve.BatchEntry
	events  []serve.BatchEvent
	metrics map[string]float64
}

func bcastSetup(graphs []graphInput) (*bcastState, error) {
	srv, err := startServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	st := &bcastState{srv: srv}
	for _, gi := range graphs {
		info, _, err := srv.cl.register(gi)
		if err != nil {
			srv.stop()
			return nil, err
		}
		st.ids = append(st.ids, info.ID)
		for _, k := range kinds {
			d, _, err := srv.cl.decompose(info.ID, k)
			if err != nil {
				srv.stop()
				return nil, err
			}
			st.dec = append(st.dec, d)
		}
	}
	return st, nil
}

func runBroadcast(r *run) error {
	graphs := broadcastGraphs()
	st, err := setupMedian(r, func() (*bcastState, error) { return bcastSetup(graphs) },
		func(s *bcastState) { s.srv.stop() })
	if err != nil {
		return err
	}
	defer st.srv.stop()

	s0, m0, mem0, err := serveSnapshot(st.srv)
	if err != nil {
		return err
	}
	w, outs := bcastWindow(r, st, graphs, 2, r.window, r.minOps(), true)
	mem1 := readMem()
	r.report(w)
	s1, m1, _, err := serveSnapshot(st.srv)
	if err != nil {
		return err
	}
	if s1.PackComputes != s0.PackComputes {
		r.fail("broadcast packed %d times during the window; every decomposition should be cached", s1.PackComputes-s0.PackComputes)
	}
	ref, err := bcastReference(r, graphs, st)
	if err != nil {
		return err
	}
	bcastCheck(r, graphs, ref, outs, w.ops)
	if r.traced {
		setServeLayer(r, s0, s1, m0, m1, w.ops)
		r.setRuntime(mem0, mem1, w.ops)
		r.overhead(w)
		bcastReplay(r, st, graphs, ref, w.ops)
		scaling(r, st, graphs, ref)
	} else {
		bcastExact(r, graphs, st, outs)
	}
	s, err := st.srv.cl.stats()
	if err != nil {
		return err
	}
	checkAccounting(r, s)
	if s.PackComputes != uint64(2*len(graphs)) {
		r.fail("broadcast: %d pack computes, want %d (set-up only)", s.PackComputes, 2*len(graphs))
	}
	return nil
}

// serveSnapshot reads the service's stats, its metrics exposition and
// the runtime counters, bracketing a traced window.
func serveSnapshot(srv *server) (serve.Stats, map[string]float64, memSnap, error) {
	s, err := srv.cl.stats()
	if err != nil {
		return s, nil, memSnap{}, err
	}
	m, _, err := srv.cl.scrape()
	return s, m, readMem(), err
}

// scaling reports serve.conn_scaling: throughput on two connections
// over throughput on one. The two alternate in short windows (half a
// window in all) and the median ratio is reported, so a drift in the
// host's speed does not land on one side only.
func scaling(r *run, st *bcastState, graphs []graphInput, ref []*cast.Scheduler) {
	var ratios []float64
	for k := 0; k < 3; k++ {
		var tp [2]float64
		for c := 1; c <= 2; c++ {
			w, outs := bcastWindow(r, st, graphs, c, r.window/12, 1, false)
			r.report(w)
			bcastCheck(r, graphs, ref, outs, w.ops)
			tp[c-1] = w.opsPerSec(r.block)
		}
		ratios = append(ratios, tp[1]/tp[0])
	}
	r.set("serve.conn_scaling", median(ratios))
}

// bcastWindow runs the closed loop and returns each op's answer; with
// trace set, a traced run records spans for the ops tracerFor picks.
func bcastWindow(r *run, st *bcastState, graphs []graphInput, conns int, d time.Duration, minOps int, trace bool) (window, []*bcastOut) {
	var mine [2][]struct {
		i   int
		out *bcastOut
	}
	w := r.loop(conns, d, minOps, func(worker, i int) error {
		start := time.Now()
		var tr *tracer
		if trace {
			tr = r.tracerFor(i)
		}
		out, err := bcastExec(st, graphs, tr, worker, i, broadcastOp(r.seed, i, graphs))
		tr.add(worker, i, spanOp, start, nil)
		if err == nil {
			mine[worker] = append(mine[worker], struct {
				i   int
				out *bcastOut
			}{i, out})
		}
		return err
	})
	outs := make([]*bcastOut, w.ops)
	for _, m := range mine {
		for _, e := range m {
			outs[e.i] = e.out
		}
	}
	return w, outs
}

// bcastExec sends one op over HTTP.
func bcastExec(st *bcastState, graphs []graphInput, tr *tracer, worker, i int, op bcastOp) (*bcastOut, error) {
	out := &bcastOut{}
	var (
		c   call
		err error
	)
	id, kind := "", kinds[op.Target%2]
	if op.Type != opScrape {
		id = st.ids[op.Target/2]
	}
	switch op.Type {
	case opSingle, opFaulted:
		var resp serve.BroadcastResponse
		c, err = st.srv.cl.do("POST", "/v1/graphs/"+id+"/broadcast",
			serve.BroadcastRequest{Kind: kind, Sources: op.Sources, Seed: op.Seed, Fault: op.Fault}, jsonInto(&resp))
		out.res, out.fault = &resp.Result, resp.Fault
	case opBatch:
		var resp serve.BatchResponse
		c, err = st.srv.cl.do("POST", "/v1/graphs/"+id+"/broadcast/batch",
			serve.BatchRequest{Kind: kind, Demands: op.Demands}, jsonInto(&resp))
		out.entries = resp.Entries
	case opStream:
		c, err = st.srv.cl.do("POST", "/v1/graphs/"+id+"/broadcast/batch?stream=1",
			serve.BatchRequest{Kind: kind, Demands: op.Demands}, ndjsonInto(&out.events))
	case opScrape:
		out.metrics, c, err = st.srv.cl.scrape()
	}
	if err != nil {
		return nil, err
	}
	tr.record(worker, i, c)
	return out, nil
}

// ownPacking packs g the way a default-configured service does
// (PackSeed 0, the packers' default ε).
func ownPacking(g *graph.Graph, kind serve.Kind) ([]cast.WeightedTree, float64, error) {
	var trees []cast.WeightedTree
	if kind == serve.Dominating {
		p, err := cds.Pack(g, cds.Options{})
		if err != nil {
			return nil, 0, err
		}
		for _, t := range p.Trees {
			trees = append(trees, cast.WeightedTree{Tree: t.Tree, Weight: t.Weight})
		}
		return trees, p.Size(), nil
	}
	p, err := stp.Pack(g, stp.Options{})
	if err != nil {
		return nil, 0, err
	}
	for _, t := range p.Trees {
		trees = append(trees, cast.WeightedTree{Tree: t.Tree, Weight: t.Weight})
	}
	return trees, p.Size(), nil
}

func modelOf(kind serve.Kind) sim.Model {
	if kind == serve.Spanning {
		return sim.ECongest
	}
	return sim.VCongest
}

// bcastReference packs each decomposition itself, checks the service
// packed the same, and returns a scheduler over each (indexed like op
// targets) for replaying the service's answers.
func bcastReference(r *run, graphs []graphInput, st *bcastState) ([]*cast.Scheduler, error) {
	var ref []*cast.Scheduler
	for gi, in := range graphs {
		g := in.graph()
		for ki, kind := range kinds {
			trees, size, err := ownPacking(g, kind)
			if err != nil {
				return nil, fmt.Errorf("reference packing %s/%s: %w", in.Family, kind, err)
			}
			start := time.Now()
			s, err := cast.NewScheduler(g, trees, modelOf(kind))
			if err != nil {
				return nil, err
			}
			r.spans.add(0, -1-(2*gi+ki), spanCastBuild, start, nil)
			ref = append(ref, s)
			if d := st.dec[2*gi+ki]; d.Size != size || d.Trees != len(trees) {
				r.fail("%s/%s: service packed %d trees of size %g, own packing %d trees of size %g",
					in.Family, kind, d.Trees, d.Size, len(trees), size)
			}
		}
	}
	return ref, nil
}

// bcastCheck replays every answered op on the benchmark's own
// schedulers (two goroutines, one clone set each) and counts each op
// whose answer differs as failed.
func bcastCheck(r *run, graphs []graphInput, ref []*cast.Scheduler, outs []*bcastOut, ops int) {
	var clones [2][]*cast.Scheduler
	for w := range clones {
		for _, s := range ref {
			clones[w] = append(clones[w], s.Clone())
		}
	}
	bad := make([]string, ops)
	parallel(ops, func(w, i int) {
		if outs[i] != nil { // a nil answer failed over HTTP and is already counted
			bad[i] = bcastVerify(clones[w], broadcastOp(r.seed, i, graphs), outs[i])
		}
	})
	for i, msg := range bad {
		if msg != "" {
			r.failed++
			r.fail("broadcast op %d: %s", i, msg)
		}
	}
}

// bcastVerify compares one answer with a replay; "" means equal.
func bcastVerify(clones []*cast.Scheduler, op bcastOp, out *bcastOut) string {
	s := clones[op.Target]
	switch op.Type {
	case opSingle:
		want, err := s.Run(cast.Demand{Sources: op.Sources}, op.Seed)
		if err != nil || out.res == nil || *out.res != want || out.fault != nil {
			return fmt.Sprintf("result %+v, replay %+v (%v)", out.res, want, err)
		}
	case opFaulted:
		want, err := s.RunFaulted(cast.Demand{Sources: op.Sources}, op.Seed, *op.Fault)
		if err != nil || out.res == nil || *out.res != want.Result || out.fault == nil ||
			out.fault.PairsDelivered != want.PairsDelivered || out.fault.MessagesLost != want.MessagesLost ||
			out.fault.Retries != want.Retries || out.fault.TreesSurviving != want.TreesSurviving {
			return fmt.Sprintf("faulted result %+v/%+v, replay %+v (%v)", out.res, out.fault, want, err)
		}
	case opBatch, opStream:
		got := out.entries
		if op.Type == opStream {
			got = make([]serve.BatchEntry, len(op.Demands))
			summary := false
			for _, ev := range out.events {
				switch {
				case ev.Type == serve.EventSummary:
					summary = ev.Summary != nil && ev.Summary.Succeeded == len(op.Demands)
				case ev.Index >= 0 && ev.Index < len(got):
					got[ev.Index] = serve.BatchEntry{Index: ev.Index, Result: ev.Result, Error: ev.Error}
				}
			}
			if !summary {
				return "stream without a complete summary event"
			}
		}
		if len(got) != len(op.Demands) {
			return fmt.Sprintf("batch of %d demands answered with %d entries", len(op.Demands), len(got))
		}
		for j, d := range op.Demands {
			want, err := s.Run(cast.Demand{Sources: d.Sources}, d.Seed)
			if err != nil || got[j].Result == nil || *got[j].Result != want {
				return fmt.Sprintf("batch entry %d: %+v, replay %+v (%v)", j, got[j], want, err)
			}
		}
	case opScrape:
		// The exposition reads each counter separately, so a request on
		// the other connection can land between two reads: the parts may
		// differ from the request count by that one request. (At rest the
		// invariant is exact; runBroadcast checks it in /v1/stats.)
		m := out.metrics
		req := m["repro_serve_pack_requests_total"]
		sum := m["repro_serve_pack_computes_total"] + m["repro_serve_cache_hits_total"] +
			m["repro_serve_coalesced_total"] + m["repro_serve_store_hits_total"]
		if req == 0 || math.Abs(req-sum) > 1 {
			return fmt.Sprintf("scrape breaks pack accounting: requests %g, parts %g", req, sum)
		}
	}
	return ""
}

// bcastExact sets the seed-determined end-to-end metrics from the first
// minOps ops (a prefix every run completes) and the decompositions.
func bcastExact(r *run, graphs []graphInput, st *bcastState, outs []*bcastOut) {
	var msgs, rounds float64
	for i := 0; i < r.minOps() && i < len(outs); i++ {
		op, out := broadcastOp(r.seed, i, graphs), outs[i]
		if out == nil {
			continue
		}
		switch op.Type {
		case opSingle, opFaulted:
			msgs += float64(len(op.Sources))
			rounds += float64(out.res.Rounds)
		case opBatch, opStream:
			for j, d := range op.Demands {
				msgs += float64(len(d.Sources))
				if op.Type == opBatch && j < len(out.entries) && out.entries[j].Result != nil {
					rounds += float64(out.entries[j].Result.Rounds)
				}
			}
			for _, ev := range out.events {
				if ev.Type == serve.EventDemand && ev.Result != nil {
					rounds += float64(ev.Result.Rounds)
				}
			}
		}
	}
	r.set("msgs_per_round", msgs/rounds)
	r.set("sim_rounds", rounds)
	ratio := 0.0
	for k, d := range st.dec {
		ratio += d.Size / floorOf(graphs[k/2], kinds[k%2])
	}
	r.set("pack_size_ratio", ratio/float64(len(st.dec)))
}

// floorOf is the size floor pack_size_ratio divides by: the Theorem 1.1
// floor κ/(8·log2(n+2)) for dominating packings and ⌈(λ−1)/2⌉ for
// spanning ones.
func floorOf(gi graphInput, kind serve.Kind) float64 {
	if kind == serve.Dominating {
		return check.DominatingFloor(gi.Conn, gi.N)
	}
	return float64(gi.Conn / 2) // ⌈(λ−1)/2⌉ = ⌊λ/2⌋
}

// bcastReplay replays the traced ops one layer deeper at a time, for at
// most half a window: each op as an in-process Service call on the same
// (fully cached) service, then — single and faulted demands — as a
// direct Scheduler run. The two calls of an op run back to back, so a
// drift in the host's speed cannot land on one layer only.
func bcastReplay(r *run, st *bcastState, graphs []graphInput, ref []*cast.Scheduler, ops int) {
	ctx := context.Background()
	svc := st.srv.svc
	deadline := time.Now().Add(r.window / 2)
	for i := 0; i < ops && time.Now().Before(deadline); i++ {
		if !r.tracedOp(i) {
			continue
		}
		op := broadcastOp(r.seed, i, graphs)
		id, kind := "", kinds[op.Target%2]
		if op.Type != opScrape {
			id = st.ids[op.Target/2]
		}
		start := time.Now()
		var err error
		switch op.Type {
		case opSingle:
			_, err = svc.BroadcastContext(ctx, id, kind, op.Sources, op.Seed)
		case opFaulted:
			_, err = svc.BroadcastFaulted(ctx, id, kind, op.Sources, op.Seed, *op.Fault)
		case opBatch, opStream:
			_, err = svc.BroadcastBatch(ctx, id, kind, op.Demands)
		case opScrape:
			err = svc.Metrics().WritePrometheus(io.Discard)
		}
		r.spans.add(0, i, spanService, start, nil)
		if err != nil {
			r.fail("service replay of op %d: %v", i, err)
		}
		s := ref[op.Target]
		switch op.Type {
		case opSingle:
			m0 := readMem()
			start := time.Now()
			res, err := s.Run(cast.Demand{Sources: op.Sources}, op.Seed)
			end := time.Now()
			m1 := readMem()
			r.spans.addEnd(0, i, spanCastRun, start, end, map[string]float64{
				"allocs": float64(m1.mallocs - m0.mallocs), "rounds": float64(res.Rounds)})
			if err != nil {
				r.fail("direct run of op %d: %v", i, err)
			}
		case opFaulted:
			start := time.Now()
			res, err := s.RunFaulted(cast.Demand{Sources: op.Sources}, op.Seed, *op.Fault)
			r.spans.add(0, i, spanCastFaulted, start, map[string]float64{
				"retries": float64(res.Retries), "rounds": float64(res.Rounds)})
			if err != nil {
				r.fail("direct faulted run of op %d: %v", i, err)
			}
		}
	}
}
