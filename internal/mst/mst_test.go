package mst

import (
	"math"
	"testing"

	"repro/internal/ds"
	"repro/internal/graph"
)

func unitWeight(int) float64 { return 1 }

func TestKruskalSpanningTreeSize(t *testing.T) {
	g := graph.Hypercube(4)
	chosen := Kruskal(g, unitWeight)
	if len(chosen) != g.N()-1 {
		t.Fatalf("MST has %d edges, want %d", len(chosen), g.N()-1)
	}
	// n-1 edges without a cycle span all n vertices.
	uf := ds.NewUnionFind(g.N())
	for _, id := range chosen {
		u, v := g.Endpoints(id)
		if !uf.Union(u, v) {
			t.Fatalf("MST edge %d creates a cycle", id)
		}
	}
}

func TestKruskalRespectsWeights(t *testing.T) {
	// Triangle with one heavy edge: the heavy edge must be excluded.
	g := graph.FromEdgeList(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	heavy, ok := g.EdgeID(0, 2)
	if !ok {
		t.Fatal("edge (0,2) missing")
	}
	w := func(id int) float64 {
		if id == heavy {
			return 10
		}
		return 1
	}
	chosen := Kruskal(g, w)
	for _, id := range chosen {
		if id == heavy {
			t.Fatal("heavy edge selected")
		}
	}
}

func TestKruskalForestOnDisconnected(t *testing.T) {
	g := graph.FromEdgeList(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	chosen := Kruskal(g, unitWeight)
	if len(chosen) != 3 {
		t.Fatalf("forest has %d edges, want 3", len(chosen))
	}
}

func TestLogSumExpAgainstDirect(t *testing.T) {
	l := NewLogSumExp()
	terms := []struct{ exp, mult float64 }{
		{0, 1}, {1, 0.5}, {2, 2}, {-3, 1},
	}
	direct := 0.0
	for _, tm := range terms {
		l.Add(tm.exp, tm.mult)
		direct += tm.mult * math.Exp(tm.exp)
	}
	if got := l.Log(); math.Abs(got-math.Log(direct)) > 1e-12 {
		t.Fatalf("Log = %.15f, want %.15f", got, math.Log(direct))
	}
}

func TestLogSumExpHugeExponents(t *testing.T) {
	// exp(5000) overflows float64; the accumulator must not.
	l := NewLogSumExp()
	l.Add(5000, 1)
	l.Add(5001, 1)
	want := 5001 + math.Log(1+math.Exp(-1))
	if got := l.Log(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Log = %f, want %f", got, want)
	}
	if math.IsInf(l.Log(), 1) || math.IsNaN(l.Log()) {
		t.Fatal("accumulator overflowed")
	}
}

func TestLogSumExpGreaterThan(t *testing.T) {
	a, b := NewLogSumExp(), NewLogSumExp()
	a.Add(10, 1)
	b.Add(9, 1)
	if !a.GreaterThan(b, 1) {
		t.Fatal("exp(10) should exceed exp(9)")
	}
	if a.GreaterThan(b, 5) {
		t.Fatal("exp(10) should not exceed 5*exp(9)")
	}
	empty := NewLogSumExp()
	if empty.GreaterThan(b, 1) {
		t.Fatal("empty sum exceeds non-empty")
	}
	if !a.GreaterThan(empty, 1) {
		t.Fatal("non-empty does not exceed empty")
	}
	if zero := NewLogSumExp(); zero.GreaterThan(empty, 1) {
		t.Fatal("empty exceeds empty")
	}
}

func TestLogSumExpIgnoresZeroMult(t *testing.T) {
	l := NewLogSumExp()
	l.Add(3, 0)
	if !math.IsInf(l.Log(), -1) {
		t.Fatal("zero multiplier contributed")
	}
}
