// Package snap is the durable on-disk form of a packed decomposition:
// a versioned, deterministic, checksummed snapshot of the trees a
// packer produced for one (graph, kind, options) triple, plus the Store
// that reads and writes them atomically.
//
// The paper's decompositions are pure functions of the graph (for a
// fixed seed), so the packed trees — not the packing run — are the
// durable artifact: a snapshot written once can be reloaded by any
// later process, shipped between machines, or handed from
// cmd/decompose to cmd/serve as an interchange file. A snapshot embeds
// the full canonical edge list of its graph, so a file is
// self-contained: the graph content hash, the kind, the packing
// options digest, and every tree's edge list can all be re-derived and
// cross-checked from the bytes alone.
//
// # File format (version 2)
//
// All integers are little-endian, all floats are IEEE-754 bits:
//
//	magic    [8]byte  "REPROSNP"
//	version  uint32   2
//	n        uint32   vertex count
//	m        uint32   edge count
//	edges    m × (uint32 u, uint32 v)   canonical sorted edge list
//	graphKey uint64   FNV-64a content hash of (n, edges)
//	kind     uint8    1 = dominating, 2 = spanning
//	digest   uint64   packing-options digest (OptionsDigest)
//	size     float64  packing size Σ w_τ (pack stat)
//	trees    uint32   tree count
//	per tree:
//	  weight float64
//	  root   uint32
//	  vcount uint32   vertices in the tree
//	  (vcount-1) × (uint32 vertex, uint32 parent)  non-root vertices,
//	                                               strictly ascending
//	                                               by vertex
//	checksum uint32   CRC-32C (Castagnoli) over every preceding byte
//
// Version 1 differed only in its trailer, an 8-byte FNV-64a checksum.
// Decode rejects a version-1 file with ErrCorrupt naming the version,
// so the service treats it like any damaged file: it packs the graph
// again and saves the packing as version 2. No version-1 reader is
// kept, because a snapshot is a cache of a pure function of the graph
// and options.
//
// Encoding is deterministic: the same packing always serializes to the
// same bytes (tree vertex lists are stored sorted, no maps or
// timestamps are involved), so snapshot files can be compared or
// content-addressed byte-for-byte. Decoding enforces that canonical
// form: a tree's pairs must be strictly ascending by vertex and must
// not list the root, so every file Decode accepts re-encodes to exactly
// its own bytes. Each decoded tree owns an n-entry parent array, so
// Decode also requires trees × n ≤ the file length; a spanning tree
// takes 8(n-1)+16 bytes and always fits, and real dominating packings
// stay far below the bound.
//
// # Caller invariants
//
// A Snapshot must never be served without verification: Load checks
// the magic/version, the whole-file checksum, the embedded graph hash,
// and the structural validity of every tree (each parent list must
// form a single tree rooted at its root), and any failure is reported
// as ErrCorrupt — the caller must treat that as a cache miss and
// recompute, never as a request error. Verify additionally replays the
// internal/check packing oracles against the graph the caller intends
// to serve, so a tampered or stale file that still checksums cannot
// poison results. Snapshots share the caller's tree and edge slices;
// treat a captured Snapshot as immutable.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"

	"repro/internal/check"
	"repro/internal/graph"
)

// Version is the snapshot format version this package reads and
// writes: 2, sealed by a CRC-32C trailer. Files carrying any other
// version, version 1 with its FNV-64a trailer included, fail to decode
// with ErrCorrupt, which serving callers treat as a miss.
const Version = 2

// magic identifies a snapshot file; anything else is ErrCorrupt.
const magic = "REPROSNP"

// trailerLen is the byte length of the CRC-32C checksum trailer.
const trailerLen = 4

// The decomposition kinds a snapshot can carry. They mirror
// serve.Dominating / serve.Spanning as plain strings so this package
// does not depend on the serving layer.
const (
	// KindDominating is a Theorem 1.2 dominating-tree packing.
	KindDominating = "dominating"
	// KindSpanning is a Theorem 1.3 spanning-tree packing.
	KindSpanning = "spanning"
)

// ErrCorrupt reports a snapshot that failed any structural check: bad
// magic, unsupported version, truncation, checksum mismatch, or
// internally inconsistent content. Callers must treat it as a cache
// miss (recompute), never as a client-visible error.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// ErrNotFound reports a store lookup for a snapshot that was never
// written.
var ErrNotFound = errors.New("snap: snapshot not found")

// Snapshot is one packed decomposition in durable form: the canonical
// graph it was packed from, the kind, the packing-options digest, the
// packing size, and the weighted trees themselves.
type Snapshot struct {
	// N is the graph's vertex count.
	N int
	// Edges is the graph's canonical (sorted, deduplicated) edge list,
	// exactly as graph.Graph.Edges returns it.
	Edges []graph.Edge
	// Kind is KindDominating or KindSpanning.
	Kind string
	// OptionsDigest fingerprints the packing options (seed, ε) the
	// trees were computed with; see OptionsDigest.
	OptionsDigest uint64
	// Size is the packing size Σ w_τ.
	Size float64
	// Trees are the packed trees with their fractional weights, in
	// packing order.
	Trees []check.Weighted
}

// Capture builds a Snapshot of a packed decomposition over g. The
// graph's edge slice and the trees are shared, not copied; the
// resulting Snapshot must be treated as immutable.
func Capture(g *graph.Graph, kind string, digest uint64, trees []check.Weighted, size float64) (*Snapshot, error) {
	if kind != KindDominating && kind != KindSpanning {
		return nil, fmt.Errorf("snap: unknown decomposition kind %q", kind)
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("snap: refusing to capture an empty packing")
	}
	return &Snapshot{
		N:             g.N(),
		Edges:         g.Edges(),
		Kind:          kind,
		OptionsDigest: digest,
		Size:          size,
		Trees:         trees,
	}, nil
}

// Graph rebuilds the snapshot's graph from its embedded edge list.
func (s *Snapshot) Graph() *graph.Graph {
	edges := make([][2]int, len(s.Edges))
	for i, e := range s.Edges {
		edges[i] = [2]int{int(e.U), int(e.V)}
	}
	return graph.FromEdgeList(s.N, edges)
}

// keyHash is the FNV-64a content hash over (n, canonical edge list) —
// the registry key of the serving layer (serve.GraphID formats it).
func keyHash(n int, edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// GraphKey returns the content-hash registry key of a graph ("g" plus
// 16 hex digits), the same key serve.GraphID assigns: a pure function
// of the vertex count and the canonical edge list.
func GraphKey(g *graph.Graph) string {
	return fmt.Sprintf("g%016x", keyHash(g.N(), g.Edges()))
}

// GraphKey returns the content-hash key of the snapshot's embedded
// graph.
func (s *Snapshot) GraphKey() string {
	return fmt.Sprintf("g%016x", keyHash(s.N, s.Edges))
}

// OptionsDigest fingerprints the packing options that, together with
// the graph, determine a decomposition: the packing seed and the
// spanning packer's ε (0 selects the packer default and is part of the
// digest as-is). Two services with equal digests compute byte-identical
// decompositions for the same graph, so a snapshot is only reusable
// under a matching digest.
func OptionsDigest(seed uint64, epsilon float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(epsilon))
	h.Write(buf[:])
	return h.Sum64()
}

// Verify checks the snapshot against the graph it is about to be
// served for: the graph must match the embedded one (vertex count and
// canonical edge list), and the trees must pass the internal/check
// packing oracles for the snapshot's kind — every dominating tree must
// dominate with per-vertex load at most 1, every spanning tree must
// span with per-edge load at most 1. Size floors are skipped (the
// graph's connectivity is not stored), but structural validity and the
// capacity invariants are enough to keep a tampered or stale file from
// ever being served.
func (s *Snapshot) Verify(g *graph.Graph) error {
	if g.N() != s.N || g.M() != len(s.Edges) {
		return fmt.Errorf("snap: snapshot graph (n=%d, m=%d) does not match served graph (n=%d, m=%d)",
			s.N, len(s.Edges), g.N(), g.M())
	}
	for i, e := range g.Edges() {
		if e != s.Edges[i] {
			return fmt.Errorf("snap: snapshot edge %d is (%d,%d), served graph has (%d,%d)",
				i, s.Edges[i].U, s.Edges[i].V, e.U, e.V)
		}
	}
	switch s.Kind {
	case KindDominating:
		if err := check.DominatingPacking(g, s.Trees, 0); err != nil {
			return fmt.Errorf("snap: dominating oracle rejected snapshot: %w", err)
		}
	case KindSpanning:
		if err := check.SpanningPacking(g, s.Trees, 1, 0); err != nil {
			return fmt.Errorf("snap: spanning oracle rejected snapshot: %w", err)
		}
	default:
		return fmt.Errorf("snap: unknown decomposition kind %q", s.Kind)
	}
	return nil
}

// kindByte maps the kind strings to their wire bytes.
func kindByte(kind string) (byte, error) {
	switch kind {
	case KindDominating:
		return 1, nil
	case KindSpanning:
		return 2, nil
	}
	return 0, fmt.Errorf("snap: unknown decomposition kind %q", kind)
}

// Encode serializes the snapshot to its deterministic byte form,
// checksum trailer included.
func (s *Snapshot) Encode() ([]byte, error) {
	kb, err := kindByte(s.Kind)
	if err != nil {
		return nil, err
	}
	var w wireWriter
	w.bytes([]byte(magic))
	w.u32(Version)
	w.u32(uint32(s.N))
	w.u32(uint32(len(s.Edges)))
	for _, e := range s.Edges {
		w.u32(uint32(e.U))
		w.u32(uint32(e.V))
	}
	w.u64(keyHash(s.N, s.Edges))
	w.bytes([]byte{kb})
	w.u64(s.OptionsDigest)
	w.f64(s.Size)
	w.u32(uint32(len(s.Trees)))
	for i, t := range s.Trees {
		w.f64(t.Weight)
		w.u32(uint32(t.Tree.Root()))
		w.u32(uint32(t.Tree.Size()))
		for _, v := range t.Tree.Vertices() {
			if int(v) == t.Tree.Root() {
				continue
			}
			p, ok := t.Tree.Parent(int(v))
			if !ok {
				return nil, fmt.Errorf("snap: tree %d vertex %d has no parent and is not the root", i, v)
			}
			w.u32(uint32(v))
			w.u32(uint32(p))
		}
	}
	w.u32(checksum(w.buf))
	return w.buf, nil
}

// Decode parses and validates one snapshot file image: magic, version,
// the whole-file checksum, the tree-count bound, and the structural
// validity of every tree (the pairs must be strictly ascending by
// vertex and form single rooted trees over the embedded vertex count).
// It runs in time and memory linear in the file size, and a file it
// accepts re-encodes to exactly its bytes. Every failure wraps
// ErrCorrupt so callers can treat any bad file uniformly as a miss.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+4+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any valid snapshot", ErrCorrupt, len(data))
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	r := wireReader{buf: body}
	if string(r.take(len(magic))) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	// The version precedes the checksum check, because another
	// version's file is sealed by another trailer.
	if v := r.u32(); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, Version)
	}
	if got, want := binary.LittleEndian.Uint32(trailer), checksum(body); got != want {
		return nil, fmt.Errorf("%w: checksum %08x does not match content %08x", ErrCorrupt, got, want)
	}
	n := int(r.u32())
	m := int(r.u32())
	// Every packable graph is connected, so m >= n-1: a larger n is
	// corrupt, and bounding it by the file size also bounds each tree's
	// n-entry parent array.
	if r.err != nil || n <= 0 || m < 0 || m > len(r.buf)/8 || n > m+1 {
		return nil, fmt.Errorf("%w: implausible header (n=%d, m=%d)", ErrCorrupt, n, m)
	}
	edges := make([]graph.Edge, m)
	eb := r.take(8 * m)
	for i := range edges {
		u, v := binary.LittleEndian.Uint32(eb[8*i:]), binary.LittleEndian.Uint32(eb[8*i+4:])
		if int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("%w: edge %d (%d,%d) out of range [0,%d)", ErrCorrupt, i, u, v, n)
		}
		edges[i] = graph.Edge{U: int32(u), V: int32(v)}
	}
	if got, want := r.u64(), keyHash(n, edges); got != want {
		return nil, fmt.Errorf("%w: embedded graph hash %016x does not match edge list %016x", ErrCorrupt, got, want)
	}
	var kind string
	switch kb := r.take(1); {
	case r.err != nil:
	case kb[0] == 1:
		kind = KindDominating
	case kb[0] == 2:
		kind = KindSpanning
	default:
		return nil, fmt.Errorf("%w: unknown kind byte %d", ErrCorrupt, kb[0])
	}
	digest := r.u64()
	size := r.f64()
	treeCount := int(r.u32())
	// Every tree allocates an n-entry parent array: bounding trees × n
	// by the file length keeps Decode's memory linear in the file (see
	// the package doc for why valid files fit).
	if r.err != nil || treeCount <= 0 || treeCount > len(data)/n {
		return nil, fmt.Errorf("%w: implausible tree count %d for %d vertices in %d bytes", ErrCorrupt, treeCount, n, len(data))
	}
	trees := make([]check.Weighted, 0, treeCount)
	for i := 0; i < treeCount; i++ {
		weight := r.f64()
		root := int(r.u32())
		vcount := int(r.u32())
		if r.err != nil || vcount <= 0 || vcount > n || root >= n {
			return nil, fmt.Errorf("%w: tree %d has implausible root %d or vertex count %d", ErrCorrupt, i, root, vcount)
		}
		pairs := r.take(8 * (vcount - 1))
		if r.err != nil {
			break
		}
		parent := make([]int32, n)
		for v := range parent {
			parent[v] = graph.TreeAbsent
		}
		parent[root] = graph.TreeRoot
		prev := -1
		for j := 0; j < len(pairs); j += 8 {
			v, p := int(binary.LittleEndian.Uint32(pairs[j:])), int(binary.LittleEndian.Uint32(pairs[j+4:]))
			switch {
			case v <= prev:
				return nil, fmt.Errorf("%w: tree %d lists vertex %d after %d, not in ascending order", ErrCorrupt, i, v, prev)
			case v == root:
				return nil, fmt.Errorf("%w: tree %d lists its root %d as a non-root vertex", ErrCorrupt, i, v)
			case v >= n || p >= n:
				return nil, fmt.Errorf("%w: tree %d entry %d->%d out of range [0,%d)", ErrCorrupt, i, v, p, n)
			}
			parent[v] = int32(p)
			prev = v
		}
		t, err := graph.TreeFromParents(root, parent)
		if err != nil {
			return nil, fmt.Errorf("%w: tree %d is not a rooted tree: %v", ErrCorrupt, i, err)
		}
		trees = append(trees, check.Weighted{Tree: t, Weight: weight})
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated content", ErrCorrupt)
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last tree", ErrCorrupt, len(r.buf))
	}
	return &Snapshot{N: n, Edges: edges, Kind: kind, OptionsDigest: digest, Size: size, Trees: trees}, nil
}

// castagnoli is the CRC-32C table; hash/crc32 computes this polynomial
// with the CPU's CRC32 instruction where there is one (SSE4.2 on amd64,
// the CRC extension on arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C the trailer carries.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// wireWriter accumulates the little-endian byte image.
type wireWriter struct{ buf []byte }

func (w *wireWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *wireWriter) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *wireWriter) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *wireWriter) f64(v float64)  { w.u64(math.Float64bits(v)) }

// wireReader consumes the byte image with sticky bounds checking:
// after the first short read every further read returns zero and err
// stays set, so decode loops need only one final error check.
type wireReader struct {
	buf []byte
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = fmt.Errorf("short read")
		return make([]byte, n)
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *wireReader) u32() uint32  { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *wireReader) u64() uint64  { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }
