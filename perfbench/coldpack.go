package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cast"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/snap"
)

// The cold-pack workload is the first request on a new graph: every op
// registers a graph the service has never seen and packs it, with the
// snapshot store on, over two connections.

// coldResident bounds resident decompositions per registry segment, so
// memory does not grow with the number of ops a run completes.
const coldResident = 4

// digest is the options digest of a default-configured service.
var digest = snap.OptionsDigest(0, 0)

// warmupGraphs are packed during set-up so lazy initialisation and the
// connections are warm before the window.
func warmupGraphs(seed uint64) []graphInput {
	rng := newRand(seed, domGraphs, 1)
	return []graphInput{relabel(hypercube(6), rng), relabel(torus(12, 12), rng), relabel(harary(8, 64), rng)}
}

type cpOut struct {
	id   string
	info serve.DecompInfo
}

func cpSetup(r *run, dir string) (*server, error) {
	srv, err := startServer(serve.Config{StoreDir: dir, MaxResident: coldResident})
	if err != nil {
		return nil, err
	}
	for _, gi := range warmupGraphs(r.seed) {
		info, _, err := srv.cl.register(gi)
		if err == nil {
			for _, k := range kinds {
				if _, _, err = srv.cl.decompose(info.ID, k); err != nil {
					break
				}
			}
		}
		if err != nil {
			srv.stop()
			return nil, err
		}
	}
	srv.svc.FlushStore()
	return srv, nil
}

func runColdPack(r *run) error {
	rep := 0
	newStore := func() string { rep++; return filepath.Join(r.dir, fmt.Sprintf("store-%d", rep)) }
	srv, err := setupMedian(r, func() (*server, error) { return cpSetup(r, newStore()) }, (*server).stop)
	if err != nil {
		return err
	}
	s0, m0, mem0, err := serveSnapshot(srv)
	if err != nil {
		return err
	}
	w, outs := cpWindow(r, srv, r.window, r.minOps())
	mem1 := readMem()
	s1, m1, _, err := serveSnapshot(srv)
	srv.stop()
	if err != nil {
		return err
	}
	r.report(w)
	cpCheck(r, srv, outs, w.ops, !r.traced)
	if !r.traced {
		return nil
	}
	r.overhead(w)
	setServeLayer(r, s0, s1, m0, m1, w.ops)
	r.setRuntime(mem0, mem1, w.ops)
	cpProfiles(r, outs)
	return cpReplay(r, newStore(), w.ops)
}

// cpWindow runs the closed loop; the window ends once the write-behind
// snapshot saves are flushed, so they cannot leave the measurement.
func cpWindow(r *run, srv *server, d time.Duration, minOps int) (window, []*cpOut) {
	var mine [2][]struct {
		i   int
		out *cpOut
	}
	w := r.loop(2, d, minOps, func(worker, i int) error {
		op := coldPackOp(r.seed, i)
		tr := r.tracerFor(i)
		start := time.Now()
		gi, c1, err := srv.cl.register(op.Graph)
		if err != nil {
			return err
		}
		info, c2, err := srv.cl.decompose(gi.ID, op.Kind)
		if err != nil {
			return err
		}
		tr.add(worker, i, spanOp, start, nil)
		tr.record(worker, i, c1)
		tr.record(worker, i, c2)
		mine[worker] = append(mine[worker], struct {
			i   int
			out *cpOut
		}{i, &cpOut{gi.ID, info}})
		return nil
	})
	flush := time.Now()
	srv.svc.FlushStore()
	w.blockSecs[len(w.blockSecs)-1] += time.Since(flush).Seconds()
	outs := make([]*cpOut, w.ops)
	for _, m := range mine {
		for _, e := range m {
			outs[e.i] = e.out
		}
	}
	return w, outs
}

// cpCheck checks a finished window: every op computed a packing, each
// stored snapshot passes snap.Verify and its packing-size floor, and
// the service's pack accounting holds. With exact set it also reports
// the seed-determined end-to-end metrics over the first minOps ops.
func cpCheck(r *run, srv *server, outs []*cpOut, ops int, exact bool) {
	s := srv.svc.Stats()
	checkAccounting(r, s)
	want := uint64(ops + 2*len(warmupGraphs(r.seed)))
	if s.PackComputes != want || s.StoreErrors != 0 {
		r.fail("cold-pack: %d pack computes and %d store errors, want %d and 0", s.PackComputes, s.StoreErrors, want)
	}
	type verdict struct {
		msg                 string
		ratio, msgs, rounds float64
	}
	store := snap.NewStore(srv.storeDir)
	res := make([]verdict, ops)
	parallel(ops, func(_, i int) {
		o := outs[i]
		if o == nil {
			return // failed over HTTP and already counted
		}
		op := coldPackOp(r.seed, i)
		v := &res[i]
		if o.info.Cached || o.info.Profile == nil {
			v.msg = "answered without packing"
			return
		}
		sn, err := store.Load(o.id, string(op.Kind), digest)
		if err != nil {
			v.msg = err.Error()
			return
		}
		g := op.Graph.graph()
		if err := sn.Verify(g); err != nil {
			v.msg = err.Error()
			return
		}
		if sn.Size != o.info.Size || len(sn.Trees) != o.info.Trees {
			v.msg = fmt.Sprintf("snapshot holds %d trees of size %g, response said %d of %g", len(sn.Trees), sn.Size, o.info.Trees, o.info.Size)
			return
		}
		if err := packFloorCheck(op.Graph, op.Kind, sn.Size, o.info.Profile.SubgraphsPacked, o.info.Profile.Subgraphs); err != nil {
			v.msg = err.Error()
			return
		}
		if exact && i < r.minOps() {
			v.ratio = sn.Size / floorOf(op.Graph, op.Kind)
			v.msgs, v.rounds, v.msg = demandRounds(g, sn.Trees, op.Kind, r.seed, i)
		}
	})
	for i, v := range res {
		if v.msg != "" {
			r.failed++
			r.fail("cold-pack op %d: %s", i, v.msg)
		}
	}
	if !exact {
		return
	}
	var ratio, msgs, rounds float64
	k := min(ops, r.minOps())
	for _, v := range res[:k] {
		ratio += v.ratio
		msgs += v.msgs
		rounds += v.rounds
	}
	r.set("pack_size_ratio", ratio/float64(k))
	r.set("msgs_per_round", msgs/rounds)
	r.set("sim_rounds", rounds)
}

// demandRounds broadcasts n messages from seeded sources over a packing
// and returns the messages and scheduler rounds it took ("" error
// string on success).
func demandRounds(g *graph.Graph, trees []check.Weighted, kind serve.Kind, seed uint64, i int) (float64, float64, string) {
	wt := make([]cast.WeightedTree, len(trees))
	for j, t := range trees {
		wt[j] = cast.WeightedTree{Tree: t.Tree, Weight: t.Weight}
	}
	s, err := cast.NewScheduler(g, wt, modelOf(kind))
	if err != nil {
		return 0, 0, err.Error()
	}
	rng := newRand(seed, domDemands, i)
	res, err := s.Run(cast.Demand{Sources: sources(rng, g.N(), g.N())}, rng.Uint64())
	if err != nil {
		return 0, 0, err.Error()
	}
	return float64(g.N()), float64(res.Rounds), ""
}

// parallel runs fn(w, i) for i in 0..n-1 on two goroutines, w = 0, 1
// naming the goroutine, and returns when all are done.
func parallel(n int, fn func(w, i int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// cpProfiles reports the packers' own counters from the PackProfile of
// each decomposition response in the traced window.
func cpProfiles(r *run, outs []*cpOut) {
	var nSTP, nCDS, iters, exact, skipped, dedup, layers, matched, unmatched float64
	for _, o := range outs {
		if o == nil || o.info.Profile == nil {
			continue
		}
		p := o.info.Profile
		if p.Kind == serve.Spanning {
			nSTP++
			iters += float64(p.Iterations)
			exact += float64(p.StopChecksExact)
			skipped += float64(p.StopChecksSkipped)
			dedup += float64(p.DedupHits)
		} else {
			nCDS++
			layers += float64(p.Layers)
			matched += float64(p.Matched)
			unmatched += float64(p.Unmatched)
		}
	}
	if nSTP > 0 {
		r.set("stp.iterations", iters/nSTP)
		r.set("stp.stop_exact", exact/nSTP)
		r.set("stp.stop_skipped", skipped/nSTP)
		r.set("stp.dedup_hits", dedup/nSTP)
	}
	if nCDS > 0 {
		r.set("cds.layers", layers/nCDS)
		r.set("cds.matched", matched/nCDS)
		r.set("cds.unmatched", unmatched/nCDS)
	}
}

// cpReplay replays the traced ops one layer deeper at a time, for at
// most half a window: each op as in-process Register + Decompose calls
// on a fresh service, then as direct calls into graph, the packers,
// cast and snap. The calls of an op run back to back, so a drift in the
// host's speed cannot land on one layer only.
func cpReplay(r *run, dir string, ops int) error {
	svc := serve.New(serve.Config{StoreDir: dir, MaxResident: coldResident})
	store := snap.NewStore(filepath.Join(dir, "direct"))
	deadline := time.Now().Add(r.window / 2)
	for i := 0; i < ops && time.Now().Before(deadline); i++ {
		if !r.tracedOp(i) {
			continue
		}
		op := coldPackOp(r.seed, i)
		start := time.Now()
		id, err := svc.Register(op.Graph.N, op.Graph.Edges)
		if err == nil {
			_, err = svc.Decompose(id, op.Kind)
		}
		r.spans.add(0, i, spanService, start, nil)
		if err != nil {
			r.fail("service replay of op %d: %v", i, err)
		}
		// The write-behind save finishes outside the spans, so it does
		// not compete with the direct calls.
		svc.FlushStore()
		if err := cpDirect(r, store, op, i); err != nil {
			return err
		}
	}
	return nil
}

// cpDirect is one cold op as direct layer calls, each in its own span.
func cpDirect(r *run, store *snap.Store, op packOp, i int) error {
	start := time.Now()
	g := graph.FromEdgeList(op.Graph.N, op.Graph.Edges)
	r.spans.add(0, i, spanGraphBuild, start, nil)
	m0 := readMem()
	start = time.Now()
	trees, size, err := ownPacking(g, op.Kind)
	end := time.Now()
	m1 := readMem()
	if err != nil {
		return fmt.Errorf("direct packing of op %d: %w", i, err)
	}
	name := spanCDSPack
	if op.Kind == serve.Spanning {
		name = spanSTPPack
	}
	r.spans.addEnd(0, i, name, start, end, map[string]float64{"alloc_bytes": float64(m1.allocBytes - m0.allocBytes)})
	start = time.Now()
	if _, err := cast.NewScheduler(g, trees, modelOf(op.Kind)); err != nil {
		return err
	}
	r.spans.add(0, i, spanCastBuild, start, nil)
	start = time.Now()
	sn, err := snap.Capture(g, string(op.Kind), digest, weighted(trees), size)
	if err != nil {
		return err
	}
	data, err := sn.Encode()
	if err != nil {
		return err
	}
	r.spans.add(0, i, spanSnapEncode, start, map[string]float64{"bytes": float64(len(data))})
	start = time.Now()
	if err := store.Save(sn); err != nil {
		return err
	}
	r.spans.add(0, i, spanSnapSave, start, nil)
	return nil
}

func weighted(trees []cast.WeightedTree) []check.Weighted {
	out := make([]check.Weighted, len(trees))
	for i, t := range trees {
		out[i] = check.Weighted{Tree: t.Tree, Weight: t.Weight}
	}
	return out
}

// packFloorCheck holds a service-computed packing to the paper's size
// floor. The service runs the full searches, as the repository's own
// full-pack sweeps do: the dominating connectivity guess lands within a
// factor 2 of κ, so that floor is asserted at half strength (and the
// size can never exceed κ); the spanning floor scales with the share of
// sampled subgraphs that packed.
func packFloorCheck(gi graphInput, kind serve.Kind, size float64, packed, subgraphs int) error {
	if kind == serve.Dominating {
		floor := check.DominatingFloor(gi.Conn, gi.N) / 2
		if size+1e-9 < floor || size > float64(gi.Conn)+1e-9 {
			return fmt.Errorf("%s dominating size %.4f outside [%.4f, κ=%d]", gi.Family, size, floor, gi.Conn)
		}
		return nil
	}
	floor := check.SpanningFloor(gi.Conn, 0.1)
	if subgraphs > 0 {
		floor *= float64(packed) / float64(subgraphs)
	}
	if size+1e-9 < floor {
		return fmt.Errorf("%s spanning size %.4f below floor %.4f", gi.Family, size, floor)
	}
	return nil
}
