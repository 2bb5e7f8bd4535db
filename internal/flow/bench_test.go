package flow

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkEdgeConnectivity times the production λ (dominating-set
// flows) against the Stoer–Wagner test oracle on the three largest
// cold-pack families.
//
//	go test -run '^$' -bench EdgeConnectivity -benchmem ./internal/flow
func BenchmarkEdgeConnectivity(b *testing.B) {
	h, err := graph.Harary(12, 160)
	if err != nil {
		b.Fatal(err)
	}
	for _, fam := range []namedGraph{
		{"Q8", graph.Hypercube(8)}, {"T16x16", graph.Torus(16, 16)}, {"H(12,160)", h},
	} {
		for _, impl := range []struct {
			name string
			fn   func(*graph.Graph) int
		}{{"EdgeConnectivity", EdgeConnectivity}, {"StoerWagner", StoerWagner}} {
			b.Run(impl.name+"/"+fam.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.fn(fam.g)
				}
			})
		}
	}
}
