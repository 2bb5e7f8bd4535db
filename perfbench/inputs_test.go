package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"sort"
	"testing"

	"repro/internal/serve"
)

// generated returns every input a workload would send for its first ops
// under seed, serialized.
func generated(t *testing.T, seed uint64) []byte {
	t.Helper()
	graphs := broadcastGraphs()
	rgraphs, order := reloadGraphs(seed)
	var all []any
	all = append(all, graphs, rgraphs, order, warmupGraphs(seed))
	for i := 0; i < 400; i++ {
		all = append(all, broadcastOp(seed, i, graphs))
	}
	for i := 0; i < 60; i++ {
		all = append(all, coldPackOp(seed, i), reloadOpAt(seed, i, rgraphs, order), distOpAt(seed, i))
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generated(t, 7), generated(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, generated(t, 8)) {
		t.Fatal("different seeds generated identical inputs")
	}
}

// TestColdPackGraphsAreNew checks that cold-pack's first ops never
// repeat a graph, so each is the first request on its graph and the
// run can demand PackComputes == ops.
func TestColdPackGraphsAreNew(t *testing.T) {
	seen := map[string]int{}
	for _, g := range warmupGraphs(3) {
		seen[serve.GraphID(g.graph())] = -1
	}
	for i := 0; i < 3*blockLen; i++ {
		id := serve.GraphID(coldPackOp(3, i).Graph.graph())
		if j, dup := seen[id]; dup {
			t.Fatalf("op %d repeats the graph of op %d", i, j)
		}
		seen[id] = i
	}
}

// TestReloadOrderAlwaysMisses replays warm-reload's op sequence against
// a model of the service's residency (a per-segment LRU holding one
// decomposition) under arbitrary graph-to-segment maps: every op must
// find its decomposition non-resident.
func TestReloadOrderAlwaysMisses(t *testing.T) {
	graphs, order := reloadGraphs(5)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0))
		segments := 1 + rng.IntN(8)
		segOf := make([]int, len(graphs))
		for g := range segOf {
			segOf[g] = rng.IntN(segments)
		}
		type decomp struct {
			graph int
			kind  serve.Kind
		}
		resident := map[int]decomp{}
		for i := 0; i < 10*len(graphs); i++ {
			op := reloadOpAt(5, i, graphs, order)
			seg := segOf[op.Graph]
			for _, k := range op.Kinds {
				d := decomp{op.Graph, k}
				if cur, ok := resident[seg]; ok && cur == d {
					t.Fatalf("trial %d: op %d finds graph %d/%s resident", trial, i, op.Graph, k)
				}
				resident[seg] = d
			}
		}
	}
}

// TestDecksCoverEveryKind checks each block of cold-pack and sim-dist
// packs every deck family once per kind.
func TestDecksCoverEveryKind(t *testing.T) {
	count := map[string]int{}
	for i := 0; i < blockLen-1; i++ {
		op := coldPackOp(9, i)
		count[op.Graph.Family+"/"+string(op.Kind)]++
		if want := kinds[i%2]; op.Kind != want {
			t.Fatalf("cold-pack op %d is %s, want alternating kinds", i, op.Kind)
		}
	}
	for i := 0; i < len(distDeck); i++ {
		op := distOpAt(9, i)
		count["dist "+op.Graph.Family+"/"+string(op.Kind)]++
	}
	if len(count) != 2*len(packDeck)+len(distDeck) {
		t.Fatalf("blocks cover %d family/kind pairs, want %d", len(count), 2*len(packDeck)+len(distDeck))
	}
	for pair, n := range count {
		if n != 1 {
			t.Fatalf("%s appears %d times in one block", pair, n)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
		}
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.spec), len(c.defs))
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
		}
	}
}
