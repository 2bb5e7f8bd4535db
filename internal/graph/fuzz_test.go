package graph

import (
	"slices"
	"sort"
	"testing"
)

// FuzzBuilder drives Builder with arbitrary edge streams — duplicates,
// self-loops, repeated finalization, and interleaved HasEdge/NumEdges
// probes (which flip the builder onto its lazy-index path) — and checks
// the finalized CSR graph against a reference edge set: sorted deduped
// symmetric adjacency, consistent edge ids, and intact offsets.
//
// `make ci` runs a 10-second smoke of this fuzzer; longer local runs:
//
//	go test -fuzz FuzzBuilder -fuzztime 2m ./internal/graph
func FuzzBuilder(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 0, 2, 2, 1, 3})        // dup (reversed), self-loop
	f.Add(uint8(1), []byte{0, 0, 0, 0})                    // single vertex, loops only
	f.Add(uint8(16), []byte{0, 1, 0, 1, 0, 1, 5, 9, 9, 5}) // heavy duplication
	f.Add(uint8(32), []byte{})                             // no edges
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%32 + 1
		b := NewBuilder(n)
		want := make(map[[2]int]bool)
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			// Every third proposal, probe the builder mid-stream so the
			// lazy duplicate index gets built and then kept in sync.
			if i%6 == 4 {
				lo, hi := u, v
				if lo > hi {
					lo, hi = hi, lo
				}
				if got := b.HasEdge(u, v); got != (u != v && want[[2]int{lo, hi}]) {
					t.Fatalf("mid-build HasEdge(%d,%d) = %v, want %v", u, v, got, !got)
				}
				if got := b.NumEdges(); got != len(want) {
					t.Fatalf("mid-build NumEdges = %d, want %d", got, len(want))
				}
			}
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				want[[2]int{u, v}] = true
			}
		}
		g := b.Graph()

		if g.N() != n {
			t.Fatalf("N = %d, want %d", g.N(), n)
		}
		if g.M() != len(want) {
			t.Fatalf("M = %d, want %d distinct edges", g.M(), len(want))
		}

		// Edge list: sorted by (U,V), deduped, ids consistent both ways.
		edges := g.Edges()
		for id, e := range edges {
			if e.U >= e.V {
				t.Fatalf("edge %d = (%d,%d) not normalized U < V", id, e.U, e.V)
			}
			if !want[[2]int{int(e.U), int(e.V)}] {
				t.Fatalf("edge %d = (%d,%d) was never added", id, e.U, e.V)
			}
			if id > 0 && !(edges[id-1].U < e.U || (edges[id-1].U == e.U && edges[id-1].V < e.V)) {
				t.Fatalf("edge list not sorted at id %d", id)
			}
			if got, ok := g.EdgeID(int(e.U), int(e.V)); !ok || got != id {
				t.Fatalf("EdgeID(%d,%d) = %d,%v, want %d", e.U, e.V, got, ok, id)
			}
		}

		// Adjacency: sorted, strictly increasing (dedup), loop-free,
		// symmetric, parallel to incident edge ids.
		degSum := 0
		for v := 0; v < n; v++ {
			nbr := g.Neighbors(v)
			eids := g.IncidentEdges(v)
			if len(nbr) != len(eids) {
				t.Fatalf("vertex %d: %d neighbors but %d incident ids", v, len(nbr), len(eids))
			}
			degSum += len(nbr)
			if !sort.SliceIsSorted(nbr, func(i, j int) bool { return nbr[i] < nbr[j] }) {
				t.Fatalf("vertex %d adjacency %v not sorted", v, nbr)
			}
			for i, w := range nbr {
				if int(w) == v {
					t.Fatalf("vertex %d kept a self-loop", v)
				}
				if i > 0 && nbr[i-1] == w {
					t.Fatalf("vertex %d adjacency %v has duplicate %d", v, nbr, w)
				}
				lo, hi := v, int(w)
				if lo > hi {
					lo, hi = hi, lo
				}
				if !want[[2]int{lo, hi}] {
					t.Fatalf("adjacency invented edge (%d,%d)", v, w)
				}
				e := edges[eids[i]]
				if int(e.U) != lo || int(e.V) != hi {
					t.Fatalf("vertex %d: incident id %d is (%d,%d), want (%d,%d)", v, eids[i], e.U, e.V, lo, hi)
				}
				if !slices.Contains(g.Neighbors(int(w)), int32(v)) {
					t.Fatalf("asymmetric adjacency: %d lists %d but not vice versa", v, w)
				}
			}
		}
		if degSum != 2*len(want) {
			t.Fatalf("degree sum %d, want %d", degSum, 2*len(want))
		}

		// The builder stays usable after finalization: a second Graph()
		// over the same stream is identical.
		g2 := b.Graph()
		if g2.M() != g.M() || g2.N() != g.N() {
			t.Fatalf("re-finalize changed shape: %d/%d vs %d/%d", g2.N(), g2.M(), g.N(), g.M())
		}
	})
}
