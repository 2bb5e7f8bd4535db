package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cds"
	"repro/internal/graph"
	"repro/internal/stp"
)

// packSpanning packs spanning trees of the test graph.
func packSpanning(t testing.TB, g *graph.Graph, seed uint64) ([]graph.WeightedTree, float64) {
	t.Helper()
	p, err := stp.Pack(g, stp.Options{Seed: seed})
	if err != nil {
		t.Fatalf("stp.Pack: %v", err)
	}
	return p.Trees, p.Size()
}

// packDominating packs dominating trees of the test graph.
func packDominating(t testing.TB, g *graph.Graph, seed uint64) ([]graph.WeightedTree, float64) {
	t.Helper()
	p, err := cds.Pack(g, cds.Options{Seed: seed})
	if err != nil {
		t.Fatalf("cds.Pack: %v", err)
	}
	return p.Trees, p.Size()
}

func testGraph() *graph.Graph { return graph.Hypercube(4) }

// sameTrees requires byte-level equality of two tree collections:
// same order, weights, roots, vertex sets, and parent pointers.
func sameTrees(t *testing.T, a, b []graph.WeightedTree) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("tree count %d != %d", len(a), len(b))
	}
	for i := range a {
		ta, tb := a[i].Tree, b[i].Tree
		if a[i].Weight != b[i].Weight {
			t.Fatalf("tree %d weight %v != %v", i, a[i].Weight, b[i].Weight)
		}
		if ta.Root() != tb.Root() || ta.Size() != tb.Size() {
			t.Fatalf("tree %d shape (root=%d,size=%d) != (root=%d,size=%d)",
				i, ta.Root(), ta.Size(), tb.Root(), tb.Size())
		}
		va, vb := ta.Vertices(), tb.Vertices()
		for j := range va {
			if va[j] != vb[j] {
				t.Fatalf("tree %d vertex %d: %d != %d", i, j, va[j], vb[j])
			}
			pa, oka := ta.Parent(int(va[j]))
			pb, okb := tb.Parent(int(vb[j]))
			if pa != pb || oka != okb {
				t.Fatalf("tree %d parent of %d: (%d,%v) != (%d,%v)", i, va[j], pa, oka, pb, okb)
			}
		}
	}
}

func TestRoundTripSpanning(t *testing.T) {
	g := testGraph()
	trees, size := packSpanning(t, g, 7)
	digest := OptionsDigest(7, 0)
	s, err := Capture(g, KindSpanning, digest, trees, size)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.N != g.N() || len(got.Edges) != g.M() || got.Kind != KindSpanning ||
		got.OptionsDigest != digest || got.Size != size {
		t.Fatalf("header round-trip: %+v", got)
	}
	if got.GraphKey() != GraphKey(g) {
		t.Fatalf("graph key %s != %s", got.GraphKey(), GraphKey(g))
	}
	sameTrees(t, trees, got.Trees)
	if err := got.Verify(g); err != nil {
		t.Fatalf("Verify after round-trip: %v", err)
	}
	// Determinism: re-encoding the decoded snapshot reproduces the bytes.
	data2, err := got.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("encode(decode(x)) differs from x: encoding is not canonical")
	}
}

func TestRoundTripDominating(t *testing.T) {
	g := testGraph()
	trees, size := packDominating(t, g, 3)
	s, err := Capture(g, KindDominating, OptionsDigest(3, 0), trees, size)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sameTrees(t, trees, got.Trees)
	if err := got.Verify(g); err != nil {
		t.Fatalf("Verify after round-trip: %v", err)
	}
}

// encodeSpanning is the shared fixture for the corruption tests.
func encodeSpanning(t *testing.T) ([]byte, *graph.Graph) {
	t.Helper()
	g := testGraph()
	trees, size := packSpanning(t, g, 7)
	s, err := Capture(g, KindSpanning, OptionsDigest(7, 0), trees, size)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data, g
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, g := encodeSpanning(t)
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	v0, v1 := u32(firstPairs(g, 0)), u32(firstPairs(g, 1))
	root := u32(firstPairs(g, 0) - 8)
	m := u32(16)
	// Each row names a fragment of the one check it targets, so a row
	// whose damage some earlier check catches fails.
	cases := map[string]struct {
		corrupt func([]byte) []byte
		want    string
	}{
		"empty":     {func(b []byte) []byte { return nil }, "0 bytes is shorter than any valid snapshot"},
		"tiny":      {func(b []byte) []byte { return b[:8] }, "8 bytes is shorter than any valid snapshot"},
		"truncated": {func(b []byte) []byte { return b[:len(b)/2] }, "checksum"},
		"no-trailer": {func(b []byte) []byte {
			return b[:len(b)-trailerLen]
		}, "checksum"},
		"bad-magic": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return rechecksum(c)
		}, "bad magic"},
		"wrong-version": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[8:], Version+1)
			return rechecksum(c)
		}, fmt.Sprintf("unsupported version %d (want %d)", Version+1, Version)},
		"bit-flip-header": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[13] ^= 0x01
			return c
		}, "checksum"},
		"bit-flip-middle": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}, "checksum"},
		"bit-flip-trailer": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x80
			return c
		}, "checksum"},
		"trailing-garbage": {func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0xde, 0xad)
		}, "checksum"},
		"pairs-swapped": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			p0, p1 := firstPairs(g, 0), firstPairs(g, 1)
			for k := 0; k < 8; k++ {
				c[p0+k], c[p1+k] = c[p1+k], c[p0+k]
			}
			return rechecksum(c)
		}, fmt.Sprintf("tree 0 lists vertex %d after %d, not in ascending order", v0, v1)},
		"vertex-twice": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c[firstPairs(g, 1):firstPairs(g, 1)+8], c[firstPairs(g, 0):])
			return rechecksum(c)
		}, fmt.Sprintf("tree 0 lists vertex %d after %d, not in ascending order", v0, v0)},
		"root-as-pair": {func(b []byte) []byte {
			// Overwrite the vertex of the pair whose slot the root
			// would take in ascending order, so only the root check
			// can reject it.
			c := append([]byte(nil), b...)
			j := 0
			for j < g.N()-2 && binary.LittleEndian.Uint32(c[firstPairs(g, j):]) < root {
				j++
			}
			binary.LittleEndian.PutUint32(c[firstPairs(g, j):], root)
			return rechecksum(c)
		}, fmt.Sprintf("tree 0 lists its root %d as a non-root vertex", root)},
		"parent-out-of-range": {func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[firstPairs(g, 0)+4:], uint32(g.N()))
			return rechecksum(c)
		}, fmt.Sprintf("tree 0 entry %d->%d out of range [0,%d)", v0, g.N(), g.N())},
		"vertices-beyond-edges": {func(b []byte) []byte {
			// n = m+2 cannot be connected. Key hash and checksum are
			// recomputed, so only the header bound can reject it.
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[12:], m+2)
			binary.LittleEndian.PutUint64(c[20+8*m:], keyHash(int(m)+2, g.Edges()))
			return rechecksum(c)
		}, fmt.Sprintf("implausible header (n=%d, m=%d)", m+2, m)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Decode(tc.corrupt(data))
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode of %s file: err=%v, want ErrCorrupt containing %q", name, err, tc.want)
			}
		})
	}
}

// firstPairs returns the offset of pair j of the first tree in an
// encodeSpanning file over g: past the header, the tree count, and the
// tree's weight, root and vertex count.
func firstPairs(g *graph.Graph, j int) int {
	header := len(magic) + 4 + 4 + 4 + 8*g.M() + 8 + 1 + 8 + 8 + 4
	return header + 8 + 4 + 4 + 8*j
}

// rechecksum rewrites a file image's checksum trailer in place, so only
// the structural checks can reject a tampered body.
func rechecksum(c []byte) []byte {
	binary.LittleEndian.PutUint32(c[len(c)-trailerLen:], checksum(c[:len(c)-trailerLen]))
	return c
}

// seal returns a copy of a file body followed by its checksum trailer.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), checksum(body))
}

// FuzzSnapDecode feeds Decode arbitrary file bodies behind a freshly
// computed checksum trailer, so mutations reach the structural checks
// instead of dying at the checksum. Decode must never panic, and any
// file it accepts must be canonical: re-encoding the snapshot gives
// back exactly the input bytes. The seed body must decode once sealed,
// or the trailer is not the one Decode checks and every input would die
// there.
func FuzzSnapDecode(f *testing.F) {
	// A small seed keeps the engine fast: a 4-cycle and one spanning path.
	path, err := graph.NewTree(4, 0, map[int]int{0: -1, 1: 0, 2: 1, 3: 2})
	if err != nil {
		f.Fatal(err)
	}
	s, err := Capture(graph.Cycle(4), KindSpanning, OptionsDigest(1, 0), []graph.WeightedTree{{Tree: path, Weight: 1}}, 1)
	if err != nil {
		f.Fatal(err)
	}
	data, err := s.Encode()
	if err != nil {
		f.Fatal(err)
	}
	body := data[:len(data)-trailerLen]
	if _, err := Decode(seal(body)); err != nil {
		f.Fatalf("sealed seed body does not decode: %v", err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		file := seal(body)
		s, err := Decode(file)
		if err != nil {
			return
		}
		again, err := s.Encode()
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(again, file) {
			t.Fatalf("accepted file is not canonical: re-encoding gives %d bytes that differ from its %d", len(again), len(file))
		}
	})
}

// TestDecodeRejectsTamperedTree crafts a checksum-valid file whose tree
// structure is broken (a vertex parented to itself far from the root),
// and requires the structural validation to catch it.
func TestDecodeRejectsTamperedTree(t *testing.T) {
	data, g := encodeSpanning(t)
	s, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// Rebuild with a cycle: point the first tree's last vertex at itself.
	lastPair := firstPairs(g, s.Trees[0].Tree.Size()-2)
	c := append([]byte(nil), data...)
	v := binary.LittleEndian.Uint32(c[lastPair:])
	binary.LittleEndian.PutUint32(c[lastPair+4:], v) // parent := self
	if _, err := Decode(rechecksum(c)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "tree 0 is not a rooted tree") {
		t.Fatalf("self-parented tree decoded: err=%v, want ErrCorrupt naming tree 0 as not a rooted tree", err)
	}
}

// TestDecodeMemoryBoundedByFileSize decodes crafted checksum-valid
// dominating files of growing size: a path on n vertices packed into
// n-1 one-vertex trees. Every tree would own an n-entry parent array,
// quadratic in the file size, so Decode must reject each file by its
// tree count before building any tree, allocating at most 8× the file.
func TestDecodeMemoryBoundedByFileSize(t *testing.T) {
	for _, n := range []int{1000, 2000, 4000} {
		g := graph.Path(n)
		single, err := graph.NewTree(n, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		trees := make([]graph.WeightedTree, n-1)
		for i := range trees {
			trees[i] = graph.WeightedTree{Tree: single, Weight: 1}
		}
		s := &Snapshot{N: n, Edges: g.Edges(), Kind: KindDominating, OptionsDigest: 1, Size: float64(n - 1), Trees: trees}
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Decode(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "implausible tree count") {
			t.Fatalf("n=%d: %d one-vertex trees in %d bytes decoded: err=%v, want ErrCorrupt for the tree count", n, n-1, len(data), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(data)) {
			t.Fatalf("n=%d: Decode of a %d-byte file allocated %d bytes, want at most %d", n, len(data), alloc, 8*len(data))
		}
	}
}

// TestDecodeLongPathLinear decodes the spanning snapshot of a path on
// 2^16 vertices rooted at either end. Validation that walks every
// vertex's ancestor chain is quadratic here and takes seconds; the
// linear pass takes milliseconds.
func TestDecodeLongPathLinear(t *testing.T) {
	const n = 1 << 16
	g := graph.Path(n)
	for _, root := range []int{0, n - 1} {
		s, err := Capture(g, KindSpanning, 1, []graph.WeightedTree{{Tree: graph.TreeFromBFS(g, root), Weight: 1}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("root %d: Decode: %v", root, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("root %d: Decode of a %d-vertex path took %v, want linear time", root, n, el)
		}
		sameTrees(t, s.Trees, got.Trees)
	}
}

// TestVerifyRejectsWrongGraph serves a valid snapshot against a
// different graph and expects the oracle layer to reject it.
func TestVerifyRejectsWrongGraph(t *testing.T) {
	data, _ := encodeSpanning(t)
	s, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	other := graph.Torus(4, 4) // same n, different edges
	if err := s.Verify(other); err == nil {
		t.Fatal("snapshot verified against a different graph")
	}
}

// TestVerifyRejectsOverloadedPacking doubles every weight so the
// per-edge capacity oracle must fire even though the file would
// checksum fine.
func TestVerifyRejectsOverloadedPacking(t *testing.T) {
	g := testGraph()
	trees, size := packSpanning(t, g, 7)
	heavy := make([]graph.WeightedTree, len(trees))
	for i, w := range trees {
		heavy[i] = graph.WeightedTree{Tree: w.Tree, Weight: w.Weight * 4}
	}
	s, err := Capture(g, KindSpanning, 1, heavy, size*4)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if err := s.Verify(g); err == nil {
		t.Fatal("overloaded packing passed the spanning oracle")
	}
}

func TestStoreSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	st := NewStore(dir)
	g := testGraph()
	trees, size := packSpanning(t, g, 7)
	digest := OptionsDigest(7, 0)
	s, err := Capture(g, KindSpanning, digest, trees, size)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}

	// Missing file (and even a missing directory) is ErrNotFound.
	if _, err := st.Load(GraphKey(g), KindSpanning, digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load before save: err=%v, want ErrNotFound", err)
	}
	if err := st.Save(s); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := st.Load(GraphKey(g), KindSpanning, digest)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sameTrees(t, trees, got.Trees)

	// A different digest is a different key: not found, not corrupt.
	if _, err := st.Load(GraphKey(g), KindSpanning, digest+1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load with wrong digest: err=%v, want ErrNotFound", err)
	}

	// No temp litter after a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("store holds %d files after one save, want 1", len(entries))
	}
}

// TestStoreLoadRejectsMisfiledSnapshot renames a valid snapshot onto
// another key's path; the content/key cross-check must refuse it.
func TestStoreLoadRejectsMisfiledSnapshot(t *testing.T) {
	st := NewStore(t.TempDir())
	g := testGraph()
	trees, size := packSpanning(t, g, 7)
	digest := OptionsDigest(7, 0)
	s, err := Capture(g, KindSpanning, digest, trees, size)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if err := st.Save(s); err != nil {
		t.Fatalf("Save: %v", err)
	}
	other := graph.Torus(4, 4)
	if err := os.Rename(
		st.Path(GraphKey(g), KindSpanning, digest),
		st.Path(GraphKey(other), KindSpanning, digest),
	); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := st.Load(GraphKey(other), KindSpanning, digest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misfiled snapshot loaded: err=%v, want ErrCorrupt", err)
	}
}

// TestStoreLoadRejectsTruncatedFile truncates the on-disk file in
// place (a torn write simulation) and expects ErrCorrupt.
func TestStoreLoadRejectsTruncatedFile(t *testing.T) {
	st := NewStore(t.TempDir())
	g := testGraph()
	trees, size := packDominating(t, g, 3)
	digest := OptionsDigest(3, 0)
	s, err := Capture(g, KindDominating, digest, trees, size)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if err := st.Save(s); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := st.Path(GraphKey(g), KindDominating, digest)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(path, info.Size()/3); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := st.Load(GraphKey(g), KindDominating, digest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot loaded: err=%v, want ErrCorrupt", err)
	}
}

func TestCaptureRejectsBadInput(t *testing.T) {
	g := testGraph()
	trees, size := packSpanning(t, g, 7)
	if _, err := Capture(g, "mystery", 1, trees, size); err == nil {
		t.Fatal("Capture accepted an unknown kind")
	}
	if _, err := Capture(g, KindSpanning, 1, nil, 0); err == nil {
		t.Fatal("Capture accepted an empty packing")
	}
}

func TestSnapshotGraphRebuild(t *testing.T) {
	g := testGraph()
	trees, size := packSpanning(t, g, 7)
	s, err := Capture(g, KindSpanning, 1, trees, size)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	rebuilt := s.Graph()
	if rebuilt.N() != g.N() || rebuilt.M() != g.M() {
		t.Fatalf("rebuilt graph n=%d m=%d, want n=%d m=%d", rebuilt.N(), rebuilt.M(), g.N(), g.M())
	}
	if GraphKey(rebuilt) != GraphKey(g) {
		t.Fatalf("rebuilt graph key %s != %s", GraphKey(rebuilt), GraphKey(g))
	}
}
