// Command decompose generates a graph from a named family and runs
// either connectivity decomposition on it, printing packing statistics.
//
// Usage:
//
//	decompose -family hypercube -param 6 -mode vertex
//	decompose -family harary -param 8 -n 64 -mode edge -distributed
//
// With -o FILE the packed trees are also written as a snapshot
// (internal/snap) that `cmd/serve` can ingest (-ingest FILE) or serve
// from a store directory, so a decomposition computed offline never has
// to be repacked by the server.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	decomp "repro"
	"repro/internal/graph"
	"repro/internal/snap"
)

func main() {
	family := flag.String("family", "hypercube", "graph family: hypercube|complete|torus|harary|hamcycles|gnp")
	param := flag.Int("param", 5, "family parameter (dimension, k, c, ...)")
	n := flag.Int("n", 64, "number of vertices (families that take one)")
	mode := flag.String("mode", "vertex", "decomposition: vertex (dominating trees) or edge (spanning trees)")
	distributed := flag.Bool("distributed", false, "run the distributed protocol on the simulator and report rounds")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("o", "", "write the packing as a snapshot `file` cmd/serve can ingest")
	flag.Parse()

	g, err := makeGraph(*family, *param, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: family=%s n=%d m=%d\n", *family, g.N(), g.M())

	var (
		kind  string
		trees []graph.WeightedTree
		size  float64
	)
	switch *mode {
	case "vertex":
		kind = snap.KindDominating
		trees, size = runVertex(g, *distributed, *seed)
	case "edge":
		kind = snap.KindSpanning
		trees, size = runEdge(g, *distributed, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *out != "" {
		if err := writeSnapshot(*out, g, kind, *seed, trees, size); err != nil {
			log.Fatal(err)
		}
	}
}

// writeSnapshot captures the packing as a snapshot file. The options
// digest uses the packer-default epsilon (this command exposes no
// epsilon flag), matching a serve.Config with the same PackSeed and
// zero Epsilon.
func writeSnapshot(path string, g *decomp.Graph, kind string, seed uint64, trees []graph.WeightedTree, size float64) error {
	sn, err := snap.Capture(g, kind, snap.OptionsDigest(seed, 0), trees, size)
	if err != nil {
		return fmt.Errorf("capturing snapshot: %w", err)
	}
	data, err := sn.Encode()
	if err != nil {
		return fmt.Errorf("encoding snapshot: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("snapshot: wrote %s (%d bytes; store name %s)\n",
		path, len(data), snap.FileName(sn.GraphKey(), kind, sn.OptionsDigest))
	return nil
}

func makeGraph(family string, param, n int, seed uint64) (*decomp.Graph, error) {
	switch family {
	case "hypercube":
		return decomp.Hypercube(param), nil
	case "complete":
		return decomp.Complete(n), nil
	case "torus":
		return decomp.Torus(param, param), nil
	case "harary":
		return decomp.Harary(param, n)
	case "hamcycles":
		return decomp.RandomHamCycles(n, param, seed), nil
	case "gnp":
		return decomp.Gnp(n, float64(param)/100, seed), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func runVertex(g *decomp.Graph, distributed bool, seed uint64) ([]graph.WeightedTree, float64) {
	var p *decomp.DominatingTreePacking
	if distributed {
		res, err := decomp.PackDominatingTreesDistributed(g, decomp.WithSeed(seed))
		if err != nil {
			log.Fatal(err)
		}
		p = res.Packing
		printDomPacking(g, p)
		fmt.Printf("distributed cost: %d rounds (%d metered + %d charged), %d messages, %d bits\n",
			res.Meter.TotalRounds(), res.Meter.MeteredRounds, res.Meter.ChargedRounds,
			res.Meter.Messages, res.Meter.Bits)
	} else {
		var err error
		p, err = decomp.PackDominatingTrees(g, decomp.WithSeed(seed))
		if err != nil {
			log.Fatal(err)
		}
		printDomPacking(g, p)
	}
	return p.Trees, p.Size()
}

func printDomPacking(g *decomp.Graph, p *decomp.DominatingTreePacking) {
	fmt.Printf("dominating-tree packing: %d trees (of %d classes), size %.3f\n",
		len(p.Trees), p.Stats.Classes, p.Size())
	fmt.Printf("  guess k-hat=%d, layers=%d, max per-node membership=%d, max tree height=%d\n",
		p.Stats.Guess, p.Stats.Layers, p.MaxTreeCount(g.N()), p.MaxTreeHeight())
	fmt.Printf("  excess-component trace (M_ell): %v\n", p.Stats.ExcessComponents)
	if err := p.Validate(g); err != nil {
		fmt.Printf("  VALIDATION FAILED: %v\n", err)
	} else {
		fmt.Println("  validation: OK (every tree dominates; vertex load <= 1)")
	}
}

func runEdge(g *decomp.Graph, distributed bool, seed uint64) ([]graph.WeightedTree, float64) {
	var p *decomp.SpanningTreePacking
	if distributed {
		res, err := decomp.PackSpanningTreesDistributed(g, decomp.WithSeed(seed))
		if err != nil {
			log.Fatal(err)
		}
		p = res.Packing
		printSpanPacking(g, p)
		fmt.Printf("distributed cost: %d rounds (%d metered + %d charged), %d messages, %d bits\n",
			res.Meter.TotalRounds(), res.Meter.MeteredRounds, res.Meter.ChargedRounds,
			res.Meter.Messages, res.Meter.Bits)
	} else {
		var err error
		p, err = decomp.PackSpanningTrees(g, decomp.WithSeed(seed))
		if err != nil {
			log.Fatal(err)
		}
		printSpanPacking(g, p)
	}
	return p.Trees, p.Size()
}

func printSpanPacking(g *decomp.Graph, p *decomp.SpanningTreePacking) {
	fmt.Printf("spanning-tree packing: %d distinct trees, size %.3f (λ=%d, Tutte/Nash-Williams bound %d)\n",
		len(p.Trees), p.Size(), p.Stats.Lambda, ceilHalf(p.Stats.Lambda-1))
	fmt.Printf("  MWU iterations=%d, subgraphs=%d, pre-rescale max load=%.3f, max edge membership=%d\n",
		p.Stats.Iterations, p.Stats.Subgraphs, p.Stats.MaxLoad, p.MaxEdgeTreeCount(g))
	if err := p.Validate(g); err != nil {
		fmt.Printf("  VALIDATION FAILED: %v\n", err)
	} else {
		fmt.Println("  validation: OK (every tree spans; edge load <= 1)")
	}
}

func ceilHalf(x int) int {
	if x <= 0 {
		return 1
	}
	return (x + 1) / 2
}
