// Package stpdist implements the distributed fractional spanning-tree
// packing of Theorem 1.3 in the E-CONGEST model (Section 5).
//
// Each MWU iteration runs one distributed MST (internal/dist's Borůvka
// phases standing in for Kutten–Peleg, docs/ARCHITECTURE.md
// "Substitutions", item 2) under edge loads quantized to multiples of
// 1/(4n) — the paper's footnote-6 rounding that keeps messages within
// O(log n) bits. The stop-or-continue decision is the leader's: we
// compute it driver-side and charge one BFS-tree convergecast (D rounds)
// per iteration, as the paper describes.
//
// The MWU loop itself — load bookkeeping, the Lemma F.1 stop test with
// its iters > 1 first-step guard, tree deduplication, the final rescale
// — is stp.Engine, shared with the centralized packer; this package
// contributes only the distributed MST oracle and the round/bit
// accounting around it.
//
// For general λ, the η subgraphs of stp.SampleSubgraphs (Section 5.2's
// edge sampling) are edge-disjoint, so their MSTs compose
// congestion-free in E-CONGEST: a joint iteration is metered as the
// maximum of the per-subgraph MST rounds (Lemma 5.1's parallel
// composition), plus the shared convergecast.
package stpdist

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stp"
)

// Result is a distributed packing outcome with its cost meter.
type Result struct {
	Packing *stp.Packing
	Meter   sim.Meter
}

// Pack computes the fractional spanning-tree packing distributedly. An
// unset ε defaults to 0.15 here, not stp.Pack's 0.1.
func Pack(g *graph.Graph, opts stp.Options) (*Result, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("stpdist: graph too small (n=%d)", n)
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("stpdist: graph disconnected")
	}
	opts = normalize(opts)
	lambda := opts.KnownLambda
	d := dist.ApproxD(g)
	var meter sim.Meter
	if lambda <= 0 {
		// The paper uses the distributed min-cut 3-approximation of [21]
		// in O~(D+sqrt(n)) rounds; we substitute the exact value and
		// charge that bound (docs/ARCHITECTURE.md "Substitutions",
		// item 1).
		lambda = flow.EdgeConnectivity(g)
		charge := float64(d) + math.Sqrt(float64(n))*math.Log2(float64(n)+2)
		meter.Charge(int(charge))
	}
	if lambda < 1 {
		return nil, fmt.Errorf("stpdist: edge connectivity %d < 1", lambda)
	}

	eta, samples := stp.SampleSubgraphs(g, lambda, opts)
	if len(samples) == 0 {
		return nil, fmt.Errorf("stpdist: all %d sampled subgraphs disconnected", eta)
	}
	out := &stp.Packing{Stats: stp.Stats{Lambda: lambda, Subgraphs: eta}}
	states := make([]*mwuState, len(samples))
	for i, s := range samples {
		states[i] = newMWUState(s.Graph, s.Lambda, opts)
	}

	for iter, limit := 0, maxIters(n, opts.Epsilon); iter < limit; iter++ {
		anyActive := false
		iterRounds := 0
		for i, st := range states {
			if st.eng.Done() {
				continue
			}
			anyActive = true
			rounds, err := st.eng.Step()
			if err != nil {
				return nil, fmt.Errorf("stpdist: subgraph %d iteration %d: %w", i, iter, err)
			}
			// Lemma 5.1: edge-disjoint subgraphs run simultaneously; the
			// joint iteration costs the maximum, not the sum.
			if rounds > iterRounds {
				iterRounds = rounds
			}
			addBitsAndMessages(&meter, &st.lastMeter)
		}
		if !anyActive {
			break
		}
		meter.MeteredRounds += iterRounds
		meter.Charge(d + len(states)) // leader decision convergecast
		out.Stats.Iterations++
	}

	for _, st := range states {
		p := st.eng.Finish()
		out.Trees = append(out.Trees, p.Trees...)
		out.Stats.SubgraphsPacked++
		out.Stats.DistinctTrees += p.Stats.DistinctTrees
		if p.Stats.MaxLoad > out.Stats.MaxLoad {
			out.Stats.MaxLoad = p.Stats.MaxLoad
		}
	}
	if len(out.Trees) == 0 {
		return nil, fmt.Errorf("stpdist: empty packing")
	}
	return &Result{Packing: out, Meter: meter}, nil
}

func normalize(o stp.Options) stp.Options {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		o.Epsilon = 0.15
	}
	if o.SampleThreshold <= 0 {
		o.SampleThreshold = 6
	}
	return o
}

// maxIters caps the joint MWU iterations on an n-vertex graph at
// 40·log₂³(n+2)/ε, clamped to [1000, 20000].
func maxIters(n int, eps float64) int {
	l := math.Log2(float64(n) + 2)
	return min(max(int(40*l*l*l/eps), 1000), 20000)
}

func addBitsAndMessages(dst *sim.Meter, src *sim.Meter) {
	dst.RawRounds += src.RawRounds
	dst.Messages += src.Messages
	dst.Bits += src.Bits
	dst.Phases += src.Phases
	// MeteredRounds handled by the caller (parallel composition).
}

// mwuState couples one subgraph's shared MWU engine with the distributed
// MST oracle feeding it: a reused MSTRunner (one simulator engine and all
// per-node protocol state across iterations) plus the quantized weight
// buffer and the cost meter of the most recent MST.
type mwuState struct {
	eng    *stp.Engine
	runner *dist.MSTRunner
	// weights is the footnote-6 quantization buffer, reused per iteration.
	weights []int64
	// lastMeter is the cost of the most recent distributed MST.
	lastMeter sim.Meter
}

func newMWUState(g *graph.Graph, lambda int, opts stp.Options) *mwuState {
	st := &mwuState{
		runner:  dist.NewMSTRunner(g, sim.ECongest),
		weights: make([]int64, g.M()),
	}
	st.eng = stp.NewEngine(g, lambda, opts, st.oracle)
	return st
}

// quantScale returns the footnote-6 quantization denominator 4n: loads
// are rounded to multiples of 1/(4n), which keeps every MST message
// within O(log n) bits while staying below the β = 1/(α·⌈(λ-1)/2⌉)
// step the analysis tolerates.
func quantScale(n int) float64 { return float64(4 * n) }

// oracle is the distributed MST oracle: quantize z_e to multiples of
// 1/(4n) (footnote 6) and run one Borůvka-phase MST on the simulator.
func (st *mwuState) oracle(e *stp.Engine) ([]int, int, error) {
	scale := quantScale(e.Graph().N())
	halfLam := float64(e.HalfLambda())
	x := e.Loads()
	for i := range st.weights {
		z := x[i] * halfLam
		st.weights[i] = int64(math.Round(z * scale))
	}
	chosen, meter, err := st.runner.MST(st.weights, 0)
	if err != nil {
		return nil, 0, err
	}
	st.lastMeter = meter
	return chosen, meter.TotalRounds(), nil
}
