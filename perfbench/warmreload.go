package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cast"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/snap"
)

// The warm-reload workload is the read side of the snapshot store: a
// restarted service whose decompositions are all on disk and, with one
// resident decomposition per registry segment, never in memory when a
// request arrives. Each op is store read → snap.Decode → Verify →
// cast.NewScheduler → run, on one connection so store-hit counts are
// exact.

type wrState struct {
	srv *server
	ids []string
}

// wrSetup packs the catalogue into a fresh store through one service,
// then starts a second service over that store and registers the
// graphs with it.
func wrSetup(dir string, graphs []graphInput) (*wrState, error) {
	fill, err := startServer(serve.Config{StoreDir: dir})
	if err != nil {
		return nil, err
	}
	for _, gi := range graphs {
		info, _, err := fill.cl.register(gi)
		for _, k := range kinds {
			if err == nil {
				_, _, err = fill.cl.decompose(info.ID, k)
			}
		}
		if err != nil {
			fill.stop()
			return nil, err
		}
	}
	fill.stop()
	srv, err := startServer(serve.Config{StoreDir: dir, MaxResident: 1})
	if err != nil {
		return nil, err
	}
	st := &wrState{srv: srv}
	for _, gi := range graphs {
		info, _, err := srv.cl.register(gi)
		if err != nil {
			srv.stop()
			return nil, err
		}
		st.ids = append(st.ids, info.ID)
	}
	return st, nil
}

func runWarmReload(r *run) error {
	graphs, order := reloadGraphs(r.seed)
	rep := 0
	var dir string
	st, err := setupMedian(r, func() (*wrState, error) {
		rep++
		dir = filepath.Join(r.dir, fmt.Sprintf("store-%d", rep))
		return wrSetup(dir, graphs)
	}, func(s *wrState) { s.srv.stop() })
	if err != nil {
		return err
	}
	defer st.srv.stop()
	ref, err := wrReference(dir, st.ids, graphs)
	if err != nil {
		return err
	}
	s0, m0, mem0, err := serveSnapshot(st.srv)
	if err != nil {
		return err
	}
	w, outs := wrWindow(r, st, graphs, order, r.window, r.minOps())
	mem1 := readMem()
	r.report(w)
	s1, m1, _, err := serveSnapshot(st.srv)
	if err != nil {
		return err
	}
	wrCheck(r, st, graphs, order, ref, outs)
	if r.traced {
		r.overhead(w)
		setServeLayer(r, s0, s1, m0, m1, w.ops)
		r.setRuntime(mem0, mem1, w.ops)
		return wrReplay(r, dir, graphs, order, w.ops)
	}
	var msgs, rounds float64
	for i := 0; i < r.minOps() && i < len(outs); i++ {
		if outs[i] != nil {
			msgs += float64(2 * graphs[reloadOpAt(r.seed, i, graphs, order).Graph].N)
			rounds += float64(outs[i][0].Rounds + outs[i][1].Rounds)
		}
	}
	r.set("msgs_per_round", msgs/rounds)
	r.set("sim_rounds", rounds)
	ratio := 0.0
	for k, size := range ref.size {
		ratio += size / floorOf(graphs[k/2], kinds[k%2])
	}
	r.set("pack_size_ratio", ratio/float64(len(ref.size)))
	return nil
}

// wrRef is the benchmark's own view of the store: every snapshot read
// back and a scheduler built over it.
type wrRef struct {
	sched []*cast.Scheduler // graph*2 + kind
	size  []float64
}

func wrReference(dir string, ids []string, graphs []graphInput) (*wrRef, error) {
	store := snap.NewStore(dir)
	ref := &wrRef{}
	for gi, id := range ids {
		g := graphs[gi].graph()
		for _, k := range kinds {
			sn, err := store.Load(id, string(k), digest)
			if err != nil {
				return nil, err
			}
			s, err := cast.NewScheduler(g, castTrees(sn), modelOf(k))
			if err != nil {
				return nil, err
			}
			ref.sched = append(ref.sched, s)
			ref.size = append(ref.size, sn.Size)
		}
	}
	return ref, nil
}

func castTrees(sn *snap.Snapshot) []cast.WeightedTree {
	out := make([]cast.WeightedTree, len(sn.Trees))
	for i, t := range sn.Trees {
		out[i] = cast.WeightedTree{Tree: t.Tree, Weight: t.Weight}
	}
	return out
}

func kindIndex(k serve.Kind) int {
	if k == serve.Spanning {
		return 1
	}
	return 0
}

// wrWindow runs the closed loop on one connection.
func wrWindow(r *run, st *wrState, graphs []graphInput, order [][2]serve.Kind, d time.Duration, minOps int) (window, []*[2]cast.Result) {
	var mine []*[2]cast.Result
	w := r.loop(1, d, minOps, func(worker, i int) error {
		op := reloadOpAt(r.seed, i, graphs, order)
		tr := r.tracerFor(i)
		start := time.Now()
		out := &[2]cast.Result{}
		for k, kind := range op.Kinds {
			var resp serve.BroadcastResponse
			c, err := st.srv.cl.do("POST", "/v1/graphs/"+st.ids[op.Graph]+"/broadcast",
				serve.BroadcastRequest{Kind: kind, Sources: op.Sources[k], Seed: op.Seeds[k]}, jsonInto(&resp))
			if err != nil {
				mine = append(mine, nil)
				return err
			}
			tr.record(worker, i, c)
			out[k] = resp.Result
		}
		tr.add(worker, i, spanOp, start, nil)
		mine = append(mine, out)
		return nil
	})
	return w, mine
}

// wrCheck replays every answer on the benchmark's own schedulers and
// checks that every request was a store reload: no packing, no store
// error, and exactly one store hit per request.
func wrCheck(r *run, st *wrState, graphs []graphInput, order [][2]serve.Kind, ref *wrRef, outs []*[2]cast.Result) {
	for i, got := range outs {
		if got == nil {
			continue
		}
		op := reloadOpAt(r.seed, i, graphs, order)
		for k, kind := range op.Kinds {
			want, err := ref.sched[2*op.Graph+kindIndex(kind)].Run(cast.Demand{Sources: op.Sources[k]}, op.Seeds[k])
			if err != nil || got[k] != want {
				r.failed++
				r.fail("warm-reload op %d/%s: result %+v, replay %+v (%v)", i, kind, got[k], want, err)
				break
			}
		}
	}
	s := st.srv.svc.Stats()
	checkAccounting(r, s)
	if s.PackComputes != 0 || s.StoreErrors != 0 || s.StoreHits != uint64(2*r.attempted) {
		r.fail("warm-reload: %d pack computes, %d store errors, %d store hits; want 0, 0 and one reload per request (%d)",
			s.PackComputes, s.StoreErrors, s.StoreHits, 2*r.attempted)
	}
}

// wrReplay replays the traced ops one layer deeper at a time, for at
// most half a window: each request as an in-process Broadcast call on
// a fresh service over the same store with the same residency bound
// (so each is again a reload), then as direct calls: os.ReadFile,
// snap.Decode, Snapshot.Verify, cast.NewScheduler and Scheduler.Run.
// The calls of a request run back to back, so a drift in the host's
// speed cannot land on one layer only.
func wrReplay(r *run, dir string, graphs []graphInput, order [][2]serve.Kind, ops int) error {
	svc := serve.New(serve.Config{StoreDir: dir, MaxResident: 1})
	ids := make([]string, len(graphs))
	for i, gi := range graphs {
		id, err := svc.Register(gi.N, gi.Edges)
		if err != nil {
			return err
		}
		ids[i] = id
	}
	store := snap.NewStore(dir)
	deadline := time.Now().Add(r.window / 2)
	requests := 0
	for i := 0; i < ops && time.Now().Before(deadline); i++ {
		if !r.tracedOp(i) {
			continue
		}
		op := reloadOpAt(r.seed, i, graphs, order)
		g := graphs[op.Graph].graph()
		for k, kind := range op.Kinds {
			start := time.Now()
			_, err := svc.Broadcast(ids[op.Graph], kind, op.Sources[k], op.Seeds[k])
			r.spans.add(0, i, spanService, start, nil)
			if err != nil {
				r.fail("service replay of op %d: %v", i, err)
			}
			requests++
			if err := wrDirect(r, store, g, ids[op.Graph], kind, i, op.Sources[k], op.Seeds[k]); err != nil {
				return err
			}
		}
	}
	if s := svc.Stats(); s.StoreHits != uint64(requests) || s.PackComputes != 0 {
		r.fail("warm-reload service replay: %d store hits and %d pack computes for %d requests", s.StoreHits, s.PackComputes, requests)
	}
	return nil
}

// wrDirect is one reload as direct layer calls, each in its own span.
func wrDirect(r *run, store *snap.Store, g *graph.Graph, id string, kind serve.Kind, op int, srcs []int, seed uint64) error {
	start := time.Now()
	data, err := os.ReadFile(store.Path(id, string(kind), digest))
	if err != nil {
		return err
	}
	r.spans.add(0, op, spanSnapRead, start, map[string]float64{"bytes": float64(len(data))})
	start = time.Now()
	sn, err := snap.Decode(data)
	if err != nil {
		return err
	}
	r.spans.add(0, op, spanSnapDecode, start, map[string]float64{"bytes": float64(len(data))})
	start = time.Now()
	if err := sn.Verify(g); err != nil {
		return err
	}
	r.spans.add(0, op, spanCheckVerify, start, nil)
	start = time.Now()
	s, err := cast.NewScheduler(g, castTrees(sn), modelOf(kind))
	if err != nil {
		return err
	}
	r.spans.add(0, op, spanCastBuild, start, nil)
	m0 := readMem()
	start = time.Now()
	res, err := s.Run(cast.Demand{Sources: srcs}, seed)
	end := time.Now()
	m1 := readMem()
	if err != nil {
		return err
	}
	r.spans.addEnd(0, op, spanCastRun, start, end, map[string]float64{
		"allocs": float64(m1.mallocs - m0.mallocs), "rounds": float64(res.Rounds)})
	return nil
}
