package main

import (
	"fmt"
	"time"

	decomp "repro"
	"repro/internal/cds"
	"repro/internal/cdsdist"
	"repro/internal/check"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stp"
	"repro/internal/stpdist"
)

// The sim-dist workload runs the paper's distributed algorithms on the
// simulator through the decomp facade, one packing at a time.

// distOut is one distributed packing: its trees, size and meter.
type distOut struct {
	trees     []check.Weighted
	size      float64
	meter     sim.Meter
	packed    int // spanning: sampled subgraphs that packed
	subgraphs int
}

// distPack runs op through the facade.
func distPack(op distOp) (*distOut, error) {
	g := op.Graph.graph()
	out := &distOut{}
	if op.Kind == serve.Dominating {
		res, err := decomp.PackDominatingTreesDistributed(g, decomp.WithSeed(op.Seed))
		if err != nil {
			return nil, err
		}
		for _, t := range res.Packing.Trees {
			out.trees = append(out.trees, check.Weighted{Tree: t.Tree, Weight: t.Weight})
		}
		out.size, out.meter = res.Packing.Size(), res.Meter
		return out, nil
	}
	res, err := decomp.PackSpanningTreesDistributed(g, decomp.WithSeed(op.Seed))
	if err != nil {
		return nil, err
	}
	for _, t := range res.Packing.Trees {
		out.trees = append(out.trees, check.Weighted{Tree: t.Tree, Weight: t.Weight})
	}
	out.size, out.meter = res.Packing.Size(), res.Meter
	out.packed, out.subgraphs = res.Packing.Stats.SubgraphsPacked, res.Packing.Stats.Subgraphs
	return out, nil
}

func runSimDist(r *run) error {
	// Set-up warms the simulator (including its worker pool, which
	// starts on the first graph with n >= 64) on graphs outside the deck.
	_, err := setupMedian(r, func() (struct{}, error) {
		rng := newRand(r.seed, domGraphs, 2)
		for _, f := range []family{hypercube(3), hypercube(6)} {
			gi := relabel(f, rng)
			for _, k := range kinds {
				if _, err := distPack(distOp{Graph: gi, Kind: k, Seed: 1}); err != nil {
					return struct{}{}, err
				}
			}
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return err
	}
	mem0 := readMem()
	w, outs := distWindow(r, r.window, r.minOps())
	mem1 := readMem()
	r.report(w)
	distCheck(r, outs)
	if r.traced {
		r.overhead(w)
		r.setRuntime(mem0, mem1, w.ops)
		return distReplay(r, outs)
	}
	var ratio, msgs, rounds float64
	k := min(len(outs), r.minOps())
	for i, o := range outs[:k] {
		if o == nil {
			continue
		}
		op := distOpAt(r.seed, i)
		ratio += o.size / floorOf(op.Graph, op.Kind)
		msgs += float64(o.meter.Messages)
		rounds += float64(o.meter.TotalRounds())
	}
	r.set("pack_size_ratio", ratio/float64(k))
	r.set("msgs_per_round", msgs/rounds)
	r.set("sim_rounds", rounds)
	return nil
}

func distWindow(r *run, d time.Duration, minOps int) (window, []*distOut) {
	var mine []*distOut
	w := r.loop(1, d, minOps, func(worker, i int) error {
		op := distOpAt(r.seed, i)
		start := time.Now()
		out, err := distPack(op)
		r.tracerFor(i).add(worker, i, spanOp, start, nil)
		mine = append(mine, out)
		return err
	})
	return w, mine
}

// distCheck holds every packing to the paper's oracles and floors.
func distCheck(r *run, outs []*distOut) {
	for i, o := range outs {
		if o == nil {
			continue
		}
		op := distOpAt(r.seed, i)
		g := op.Graph.graph()
		var err error
		if op.Kind == serve.Dominating {
			err = check.DominatingPacking(g, o.trees, 0)
		} else {
			err = check.SpanningPacking(g, o.trees, 1, 0)
		}
		if err == nil {
			err = packFloorCheck(op.Graph, op.Kind, o.size, o.packed, o.subgraphs)
		}
		if err != nil {
			r.failed++
			r.fail("sim-dist op %d (%s %s): %v", i, op.Graph.Family, op.Kind, err)
		}
	}
}

// distReplay replays the traced packings as direct cdsdist / stpdist
// calls, at the default worker count and then at
// sim.SetDefaultWorkers(1) and (2), back to back per op (so a drift in
// the host's speed cannot land on one worker count only), for at most
// a window. Every replay must reproduce the window's packing and meter.
func distReplay(r *run, outs []*distOut) error {
	defer sim.SetDefaultWorkers(0)
	deadline := time.Now().Add(r.window)
	for i := 0; i < len(outs) && time.Now().Before(deadline); i++ {
		if !r.tracedOp(i) {
			continue
		}
		op := distOpAt(r.seed, i)
		g := op.Graph.graph()
		direct := spanCDSDistPack
		if op.Kind == serve.Spanning {
			direct = spanSTPDistPack
		}
		for k, name := range []string{direct, spanSimWorkers1, spanSimWorkers2} {
			sim.SetDefaultWorkers(k) // 0 restores the default
			m0 := readMem()
			start := time.Now()
			var (
				size  float64
				meter sim.Meter
				err   error
			)
			if op.Kind == serve.Dominating {
				var res *cdsdist.Result
				if res, err = cdsdist.Pack(g, cds.Options{Seed: op.Seed}); err == nil {
					size, meter = res.Packing.Size(), res.Meter
				}
			} else {
				var res *stpdist.Result
				if res, err = stpdist.Pack(g, stp.Options{Seed: op.Seed}); err == nil {
					size, meter = res.Packing.Size(), res.Meter
				}
			}
			end := time.Now()
			m1 := readMem()
			if err != nil {
				return fmt.Errorf("%s replay of op %d: %w", name, i, err)
			}
			r.spans.addEnd(0, i, name, start, end, map[string]float64{
				"rounds":   float64(meter.TotalRounds()),
				"messages": float64(meter.Messages),
				"bits":     float64(meter.Bits),
				"allocs":   float64(m1.mallocs - m0.mallocs),
			})
			if o := outs[i]; o != nil && (o.size != size || o.meter != meter) {
				r.failed++
				r.fail("sim-dist op %d: %s replay packed size %g with meter %+v, window packed %g with %+v", i, name, size, meter, o.size, o.meter)
			}
		}
	}
	return nil
}
