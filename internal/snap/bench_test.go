package snap

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/graph"
	"repro/internal/sim"
)

// reloadCatalogue is the graph catalogue of perfbench's warm-reload
// workload (Q5–Q7, three tori, four Harary graphs, two clique chains
// and K20), packed with the serving defaults (seed 0) there too.
func reloadCatalogue(b *testing.B) []*graph.Graph {
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	return []*graph.Graph{
		graph.Hypercube(5), graph.Hypercube(6), graph.Hypercube(7),
		graph.Torus(8, 8), graph.Torus(10, 10), graph.Torus(12, 12),
		must(graph.Harary(6, 96)), must(graph.Harary(8, 64)), must(graph.Harary(9, 112)), must(graph.Harary(10, 128)),
		must(graph.CliqueChain(6, 12, 6)), must(graph.CliqueChain(8, 8, 4)), graph.Complete(20),
	}
}

// encodeKind packs g with seed 0 and returns the snapshot file.
func encodeKind(b *testing.B, g *graph.Graph, kind string) []byte {
	pack := packSpanning
	if kind == KindDominating {
		pack = packDominating
	}
	trees, size := pack(b, g, 0)
	s, err := Capture(g, kind, OptionsDigest(0, 0), trees, size)
	if err != nil {
		b.Fatal(err)
	}
	data, err := s.Encode()
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkDecode decodes Q8's spanning snapshot, and every snapshot of
// the warm-reload catalogue (both kinds of all 13 graphs) per op.
// b.SetBytes reports the decode rate in MB/s.
func BenchmarkDecode(b *testing.B) {
	run := func(b *testing.B, files [][]byte) {
		total := 0
		for _, f := range files {
			total += len(f)
		}
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for b.Loop() {
			for _, f := range files {
				if _, err := Decode(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Q8-spanning", func(b *testing.B) {
		run(b, [][]byte{encodeKind(b, graph.Hypercube(8), KindSpanning)})
	})
	b.Run("catalogue", func(b *testing.B) {
		var files [][]byte
		for _, g := range reloadCatalogue(b) {
			for _, kind := range []string{KindDominating, KindSpanning} {
				files = append(files, encodeKind(b, g, kind))
			}
		}
		run(b, files)
	})
}

// BenchmarkReload times a store reload's layers over the warm-reload
// catalogue's 26 snapshots per op: decode (Decode), verify (Verify, the
// internal/check oracles), build (cast.NewScheduler over the decoded
// trees, with the serving layer's congestion model per kind) and all,
// the three in sequence as the service runs them. b.SetBytes counts
// the snapshot files in every sub-benchmark.
func BenchmarkReload(b *testing.B) {
	type reload struct {
		g    *graph.Graph
		file []byte
		snap *Snapshot
	}
	var reloads []reload
	total := 0
	for _, g := range reloadCatalogue(b) {
		for _, kind := range []string{KindDominating, KindSpanning} {
			file := encodeKind(b, g, kind)
			s, err := Decode(file)
			if err != nil {
				b.Fatal(err)
			}
			reloads = append(reloads, reload{g: g, file: file, snap: s})
			total += len(file)
		}
	}
	decode := func(b *testing.B, r reload) *Snapshot {
		s, err := Decode(r.file)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	verify := func(b *testing.B, r reload, s *Snapshot) {
		if err := s.Verify(r.g); err != nil {
			b.Fatal(err)
		}
	}
	build := func(b *testing.B, r reload, s *Snapshot) {
		model := sim.VCongest
		if s.Kind == KindSpanning {
			model = sim.ECongest
		}
		if _, err := cast.NewScheduler(r.g, s.Trees, model); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, step func(b *testing.B, r reload)) {
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for b.Loop() {
			for _, r := range reloads {
				step(b, r)
			}
		}
	}
	b.Run("decode", func(b *testing.B) { run(b, func(b *testing.B, r reload) { decode(b, r) }) })
	b.Run("verify", func(b *testing.B) { run(b, func(b *testing.B, r reload) { verify(b, r, r.snap) }) })
	b.Run("build", func(b *testing.B) { run(b, func(b *testing.B, r reload) { build(b, r, r.snap) }) })
	b.Run("all", func(b *testing.B) {
		run(b, func(b *testing.B, r reload) {
			s := decode(b, r)
			verify(b, r, s)
			build(b, r, s)
		})
	})
}
