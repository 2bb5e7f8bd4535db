package cds

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

type namedGraph struct {
	name string
	g    *graph.Graph
}

// invariantGraphs is perfbench's 13 cold-pack families plus K16 and C9.
func invariantGraphs(t *testing.T) []namedGraph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []namedGraph{
		{"Q5", graph.Hypercube(5)},
		{"Q6", graph.Hypercube(6)},
		{"Q7", graph.Hypercube(7)},
		{"Q8", graph.Hypercube(8)},
		{"T8x8", graph.Torus(8, 8)},
		{"T12x12", graph.Torus(12, 12)},
		{"T16x16", graph.Torus(16, 16)},
		{"H6_64", must(graph.Harary(6, 64))},
		{"H8_112", must(graph.Harary(8, 112))},
		{"H10_96", must(graph.Harary(10, 96))},
		{"H12_160", must(graph.Harary(12, 160))},
		{"CC8_8_4", must(graph.CliqueChain(8, 8, 4))},
		{"CC6_12_6", must(graph.CliqueChain(6, 12, 6))},
		{"K16", graph.Complete(16)},
		{"C9", graph.Cycle(9)},
	}
}

// sweepLayers runs every guess of Pack's loop on every invariant graph
// at seeds 0-2, in one arena per seed as Pack does, and applies check
// after the jump start and after each recursive layer.
func sweepLayers(t *testing.T, check func(*virtualGraph) error) {
	for _, tc := range invariantGraphs(t) {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				var a arena
				for guess := tc.g.N(); guess >= 1; guess /= 2 {
					step := 0
					_, err := packWithGuess(tc.g, guess, Options{Seed: seed}, &a, func(vg *virtualGraph) {
						if err := check(vg); err != nil {
							t.Fatalf("seed %d guess %d after step %d: %v", seed, guess, step, err)
						}
						step++
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestComponentCountsMatchBFS checks that comps[class] is the number of
// connected components of the subgraph induced by the class's real
// members, counted by a BFS that reads only the class assignment. It is
// what lets buildPacking skip the spanning-tree build of every class
// whose count is not 1, and what the early return in merge must keep.
// The check also requires each real node's class row to hold exactly
// the classes it joined, with one representative each, which
// realClasses relies on.
func TestComponentCountsMatchBFS(t *testing.T) {
	sweepLayers(t, func(vg *virtualGraph) error {
		member := make([][]bool, vg.classes)
		for c := range member {
			member[c] = make([]bool, vg.n)
		}
		joined := make([]bool, vg.classes)
		for v := 0; v < vg.n; v++ {
			clear(joined)
			for layer := 0; layer < vg.layers; layer++ {
				for typ := 0; typ < numTypes; typ++ {
					if c := vg.class(v, layer, typ); c >= 0 {
						member[c][v] = true
						joined[c] = true
					}
				}
			}
			var want []int32
			for c, ok := range joined {
				if ok {
					want = append(want, int32(c))
				}
			}
			if got := rowClasses(vg, v); !slices.Equal(got, want) {
				return fmt.Errorf("vertex %d has representatives of %v, joined %v", v, got, want)
			}
			if len(vg.repVid[v]) != len(want) {
				return fmt.Errorf("vertex %d: %d representative vids for %d classes", v, len(vg.repVid[v]), len(want))
			}
		}
		for c := range member {
			if got, want := int(vg.comps[c]), inducedComponents(vg.g, member[c]); got != want {
				return fmt.Errorf("class %d: comps = %d, BFS counts %d components", c, got, want)
			}
		}
		return nil
	})
}

// TestAdjacentRepresentativesShareRoot checks that the representatives
// of one class at adjacent real nodes are always in one union-find set.
// merge returns at once for a virtual node whose real node already holds
// a representative of its class; that skips only unions that would
// change nothing as long as this holds.
func TestAdjacentRepresentativesShareRoot(t *testing.T) {
	sweepLayers(t, func(vg *virtualGraph) error {
		for v := 0; v < vg.n; v++ {
			for _, w := range vg.g.Neighbors(v) {
				for i, c := range rowClasses(vg, v) {
					r := vg.rep(int(w), c)
					if r < 0 {
						continue
					}
					if a, b := vg.uf.Find(int(vg.repVid[v][i])), vg.uf.Find(int(r)); a != b {
						return fmt.Errorf("class %d: representatives at adjacent %d and %d have roots %d and %d", c, v, w, a, b)
					}
				}
			}
		}
		return nil
	})
}

// rowClasses lists the classes whose bit is set in real node v's class
// row, in ascending order, testing every bit of the row one at a time.
func rowClasses(vg *virtualGraph, v int) []int32 {
	var out []int32
	row := vg.row(v)
	for c := 0; c < 64*len(row); c++ {
		if row[c/64]&(1<<(c%64)) != 0 {
			out = append(out, int32(c))
		}
	}
	return out
}

// TestArenaGuessesMatchFreshPackWithGuess runs every guess of Pack's
// loop in one shared arena, as Pack does, and checks that each packing
// equals a fresh PackWithGuess of the same guess: trees, weights,
// TreeClass, Classes and Stats.
func TestArenaGuessesMatchFreshPackWithGuess(t *testing.T) {
	for _, tc := range invariantGraphs(t) {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				opts := Options{Seed: seed}
				var a arena
				for guess := tc.g.N(); guess >= 1; guess /= 2 {
					got, err := packWithGuess(tc.g, guess, opts, &a, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := PackWithGuess(tc.g, guess, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d guess %d: arena packing differs from a fresh one:\n got  %+v\n want %+v",
							seed, guess, got.Stats, want.Stats)
					}
				}
			}
		})
	}
}

// inducedComponents counts the connected components of g[in] by BFS.
func inducedComponents(g *graph.Graph, in []bool) int {
	seen := make([]bool, g.N())
	var queue []int32
	count := 0
	for s := range in {
		if !in[s] || seen[s] {
			continue
		}
		count++
		seen[s] = true
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			for _, w := range g.Neighbors(int(queue[head])) {
				if in[w] && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return count
}
