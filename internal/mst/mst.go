// Package mst provides Kruskal's minimum spanning forest, the reference
// the packers' MST oracles are tested against, and a log-sum-exp
// accumulator. The spanning-tree packing of Section 5 calls an MST
// oracle once per MWU iteration with exponential edge costs exp(α·z_e);
// to keep that stable for large exponents the oracle works directly on
// the exponents (MST order is monotone in z_e) and the cost sums use
// the accumulator.
package mst

import (
	"math"
	"sort"

	"repro/internal/ds"
	"repro/internal/graph"
)

// Kruskal computes a minimum spanning forest of g under the given
// per-edge weights and returns the chosen edge ids. Ties are broken by
// edge id, making the result deterministic.
func Kruskal(g *graph.Graph, weight func(edgeID int) float64) []int {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := weight(order[a]), weight(order[b])
		if wa != wb {
			return wa < wb
		}
		return order[a] < order[b]
	})
	uf := ds.NewUnionFind(g.N())
	chosen := make([]int, 0, g.N()-1)
	for _, id := range order {
		u, v := g.Endpoints(id)
		if uf.Union(u, v) {
			chosen = append(chosen, id)
		}
	}
	return chosen
}

// LogSumExp accumulates a sum of terms exp(x_i), optionally scaled by a
// non-negative multiplier, while only ever storing the log of the sum.
// The spanning-tree packing compares Σ c_e·x_e against Cost(MST) where
// c_e = exp(α·z_e) can overflow float64; both sides are accumulated here.
type LogSumExp struct {
	maxExp float64 // current reference exponent
	sum    float64 // Σ m_i * exp(x_i - maxExp)
	empty  bool
}

// NewLogSumExp returns an empty accumulator.
func NewLogSumExp() *LogSumExp {
	return &LogSumExp{maxExp: math.Inf(-1), empty: true}
}

// Reset returns the accumulator to the empty state so hot loops (one
// Lemma F.1 test per MWU iteration) can reuse it without allocating.
func (l *LogSumExp) Reset() {
	l.maxExp = math.Inf(-1)
	l.sum = 0
	l.empty = true
}

// Add accumulates mult * exp(exponent). Zero multipliers are ignored.
func (l *LogSumExp) Add(exponent, mult float64) {
	if mult <= 0 {
		return
	}
	x := exponent + math.Log(mult)
	if l.empty {
		l.maxExp = x
		l.sum = 1
		l.empty = false
		return
	}
	if x > l.maxExp {
		l.sum = l.sum*math.Exp(l.maxExp-x) + 1
		l.maxExp = x
	} else {
		l.sum += math.Exp(x - l.maxExp)
	}
}

// Log returns log(Σ m_i · exp(x_i)), or -Inf when empty.
func (l *LogSumExp) Log() float64 {
	if l.empty {
		return math.Inf(-1)
	}
	return l.maxExp + math.Log(l.sum)
}

// GreaterThan reports whether this accumulated sum exceeds factor times
// the other one, comparing in the log domain.
func (l *LogSumExp) GreaterThan(other *LogSumExp, factor float64) bool {
	if other.empty {
		return !l.empty
	}
	if l.empty {
		return false
	}
	return l.Log() > other.Log()+math.Log(factor)
}
