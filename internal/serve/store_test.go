package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cast"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/snap"
)

// storeConfig is the shared persistence config for these tests: the
// store keys on (PackSeed, Epsilon), so warm-restart tests must reuse
// it exactly.
func storeConfig(dir string) Config {
	return Config{MaxConcurrent: 4, PackSeed: 11, StoreDir: dir}
}

func mustDecompose(t *testing.T, s *Service, id string, kind Kind) DecompInfo {
	t.Helper()
	info, err := s.Decompose(id, kind)
	if err != nil {
		t.Fatalf("Decompose(%s, %s): %v", id, kind, err)
	}
	return info
}

// TestWarmRestartServesFromStore is the tentpole acceptance test: a
// second service over the same store directory serves every previously
// packed (graph, kind) without running a packer, and its broadcasts are
// byte-identical to the first service's.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	sources := []int{0, 5, 9}

	s1 := New(storeConfig(dir))
	id := mustRegister(t, s1, g)
	for _, kind := range []Kind{Dominating, Spanning} {
		if info := mustDecompose(t, s1, id, kind); info.Cached {
			t.Fatalf("first %s decomposition reported cached", kind)
		}
	}
	ref := make(map[Kind]interface{})
	for _, kind := range []Kind{Dominating, Spanning} {
		res, err := s1.Broadcast(id, kind, sources, 42)
		if err != nil {
			t.Fatalf("Broadcast(%s): %v", kind, err)
		}
		ref[kind] = res
	}
	s1.FlushStore()
	st1 := s1.Stats()
	if st1.PackComputes != 2 || st1.StoreMisses != 2 || st1.StoreHits != 0 {
		t.Fatalf("cold service: PackComputes=%d StoreMisses=%d StoreHits=%d, want 2/2/0",
			st1.PackComputes, st1.StoreMisses, st1.StoreHits)
	}

	// Warm restart: fresh service, same store, same options.
	s2 := New(storeConfig(dir))
	if _, err := s2.RegisterGraph(g); err != nil {
		t.Fatalf("RegisterGraph: %v", err)
	}
	for _, kind := range []Kind{Dominating, Spanning} {
		if info := mustDecompose(t, s2, id, kind); !info.Cached {
			t.Fatalf("warm %s decomposition reported uncached (repacked)", kind)
		}
	}
	st2 := s2.Stats()
	if st2.PackComputes != 0 {
		t.Fatalf("warm restart ran %d packings, want 0", st2.PackComputes)
	}
	if st2.StoreHits != 2 || st2.StoreErrors != 0 {
		t.Fatalf("warm restart: StoreHits=%d StoreErrors=%d, want 2/0", st2.StoreHits, st2.StoreErrors)
	}
	if st2.PackRequests != st2.PackComputes+st2.CacheHits+st2.Coalesced+st2.StoreHits {
		t.Fatalf("stats invariant broken: requests=%d computes=%d hits=%d coalesced=%d storeHits=%d",
			st2.PackRequests, st2.PackComputes, st2.CacheHits, st2.Coalesced, st2.StoreHits)
	}
	for _, kind := range []Kind{Dominating, Spanning} {
		res, err := s2.Broadcast(id, kind, sources, 42)
		if err != nil {
			t.Fatalf("warm Broadcast(%s): %v", kind, err)
		}
		if !reflect.DeepEqual(res, ref[kind]) {
			t.Fatalf("warm %s broadcast differs from cold service's result", kind)
		}
	}
	if len(st2.PerGraph) != 1 || st2.PerGraph[0].StoreHits != 2 {
		t.Fatalf("per-graph store hits not recorded: %+v", st2.PerGraph)
	}
}

// TestCorruptSnapshotsDegradeToRecompute damages one kind's on-disk
// snapshot in a different way per case and asserts a restarted service
// still serves it — by repacking, never by returning an error to the
// client — while the undamaged kind still loads from the store.
func TestCorruptSnapshotsDegradeToRecompute(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a snapshot at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g := graph.Hypercube(4)
			s1 := New(storeConfig(dir))
			id := mustRegister(t, s1, g)
			mustDecompose(t, s1, id, Dominating)
			mustDecompose(t, s1, id, Spanning)
			s1.FlushStore()
			tc.corrupt(t, snap.NewStore(dir).Path(id, string(Dominating), snap.OptionsDigest(11, 0)))

			s2 := New(storeConfig(dir))
			if _, err := s2.RegisterGraph(g); err != nil {
				t.Fatal(err)
			}
			info := mustDecompose(t, s2, id, Dominating)
			s2.FlushStore() // let the repaired write-behind save land before TempDir cleanup
			if info.Cached {
				t.Fatalf("corrupt snapshot served as cached")
			}
			if info := mustDecompose(t, s2, id, Spanning); !info.Cached {
				t.Fatalf("undamaged snapshot repacked")
			}
			st := s2.Stats()
			if st.StoreErrors == 0 {
				t.Fatalf("corruption not counted: %+v", st)
			}
			if st.PackComputes != 1 || st.StoreHits != 1 {
				t.Fatalf("PackComputes=%d StoreHits=%d, want 1/1 (recompute only the damaged kind)", st.PackComputes, st.StoreHits)
			}
			if st.PackRequests != st.PackComputes+st.CacheHits+st.Coalesced+st.StoreHits {
				t.Fatalf("stats invariant broken after corruption: %+v", st)
			}
		})
	}
}

// TestVersion1SnapshotIsRecomputedAsVersion2: a version-1 file (the
// same layout sealed by an 8-byte FNV-64a trailer) is a corrupt file to
// this reader. The first Decompose counts it as a store error and
// packs, the write-behind save replaces it with the version-2 file, and
// a restarted service serves that file without packing.
func TestVersion1SnapshotIsRecomputedAsVersion2(t *testing.T) {
	dir := t.TempDir()
	g := graph.Hypercube(4)
	s1 := New(storeConfig(dir))
	id := mustRegister(t, s1, g)
	mustDecompose(t, s1, id, Spanning)
	s1.FlushStore()
	path := snap.NewStore(dir).Path(id, string(Spanning), snap.OptionsDigest(11, 0))
	v2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	body := append([]byte(nil), v2[:len(v2)-4]...)
	binary.LittleEndian.PutUint32(body[8:], 1)
	h := fnv.New64a()
	h.Write(body)
	v1 := binary.LittleEndian.AppendUint64(body, h.Sum64())
	// cmd/serve -ingest reports this Decode error for a version-1 file.
	if _, err := snap.Decode(v1); !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 1 ") {
		t.Fatalf("Decode of a version-1 file: err=%v, want ErrCorrupt naming version 1", err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(storeConfig(dir))
	mustRegister(t, s2, g)
	if info := mustDecompose(t, s2, id, Spanning); info.Cached {
		t.Fatal("version-1 snapshot served as cached")
	}
	s2.FlushStore()
	if st := s2.Stats(); st.StoreErrors != 1 || st.PackComputes != 1 || st.StoreHits != 0 {
		t.Fatalf("over a version-1 file: StoreErrors=%d PackComputes=%d StoreHits=%d, want 1/1/0",
			st.StoreErrors, st.PackComputes, st.StoreHits)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, v2) {
		t.Fatalf("re-saved file (%d bytes) differs from the version-2 image (%d bytes)", len(saved), len(v2))
	}
	if _, err := snap.Decode(saved); err != nil {
		t.Fatalf("re-saved file does not decode: %v", err)
	}

	s3 := New(storeConfig(dir))
	mustRegister(t, s3, g)
	if info := mustDecompose(t, s3, id, Spanning); !info.Cached {
		t.Fatal("upgraded snapshot repacked")
	}
	if st := s3.Stats(); st.StoreHits != 1 || st.PackComputes != 0 || st.StoreErrors != 0 {
		t.Fatalf("over the upgraded file: StoreHits=%d PackComputes=%d StoreErrors=%d, want 1/0/0",
			st.StoreHits, st.PackComputes, st.StoreErrors)
	}
}

// TestDifferentOptionsMissTheStore: snapshots are keyed by the options
// digest, so a service with a different PackSeed must not adopt another
// service's trees (they would break its replay determinism).
func TestDifferentOptionsMissTheStore(t *testing.T) {
	dir := t.TempDir()
	g := graph.Hypercube(4)
	s1 := New(storeConfig(dir))
	id := mustRegister(t, s1, g)
	mustDecompose(t, s1, id, Spanning)
	s1.FlushStore()

	cfg := storeConfig(dir)
	cfg.PackSeed = 12
	s2 := New(cfg)
	if _, err := s2.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	mustDecompose(t, s2, id, Spanning)
	s2.FlushStore()
	st := s2.Stats()
	if st.StoreHits != 0 || st.StoreMisses != 1 || st.PackComputes != 1 {
		t.Fatalf("differently-seeded service: StoreHits=%d StoreMisses=%d PackComputes=%d, want 0/1/1",
			st.StoreHits, st.StoreMisses, st.PackComputes)
	}
}

// TestEvictionReloadsFromStore: with MaxResident=1 the second kind
// evicts the first; re-requesting the first reloads it from disk (a
// store hit, not a repack) and serving still works.
func TestEvictionReloadsFromStore(t *testing.T) {
	dir := t.TempDir()
	cfg := storeConfig(dir)
	cfg.MaxResident = 1
	g := graph.Hypercube(4)
	s := New(cfg)
	id := mustRegister(t, s, g)

	mustDecompose(t, s, id, Dominating)
	s.FlushStore() // the snapshot must be on disk before eviction
	mustDecompose(t, s, id, Spanning)
	st := s.Stats()
	if st.Evictions != 1 || st.Resident != 1 {
		t.Fatalf("after second kind: Evictions=%d Resident=%d, want 1/1", st.Evictions, st.Resident)
	}

	info := mustDecompose(t, s, id, Dominating)
	if !info.Cached {
		t.Fatalf("reloaded decomposition reported uncached")
	}
	st = s.Stats()
	if st.StoreHits != 1 || st.PackComputes != 2 {
		t.Fatalf("reload after eviction: StoreHits=%d PackComputes=%d, want 1/2", st.StoreHits, st.PackComputes)
	}
	if _, err := s.Broadcast(id, Dominating, []int{0, 3}, 7); err != nil {
		t.Fatalf("Broadcast after reload: %v", err)
	}
	s.FlushStore() // the spanning save must land before TempDir cleanup
}

// TestEvictedDecompositionIsCollected: an evicted decomposition must
// not outlive its eviction. With one resident decomposition, a reload
// of one kind from the store serves a demand; loading the other kind
// evicts it, and one GC must then finalize the first kind's prototype
// scheduler handle, and with it the decomposition its core shares.
func TestEvictedDecompositionIsCollected(t *testing.T) {
	dir := t.TempDir()
	g := graph.Hypercube(4)
	fill := New(storeConfig(dir))
	id := mustRegister(t, fill, g)
	mustDecompose(t, fill, id, Dominating)
	mustDecompose(t, fill, id, Spanning)
	fill.FlushStore()

	cfg := storeConfig(dir)
	cfg.MaxResident = 1
	s := New(cfg)
	mustRegister(t, s, g)
	collected := make(chan struct{})
	// The handle lives only in this closure's frame, so nothing on the
	// test goroutine keeps it reachable after eviction.
	func() {
		if _, err := s.Broadcast(id, Dominating, []int{0, 3}, 7); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
		e, _ := s.lookup(id)
		e.shard.mu.Lock()
		proto := e.packs[Dominating].proto
		e.shard.mu.Unlock()
		runtime.SetFinalizer(proto, func(*cast.Scheduler) { close(collected) })
	}()
	mustDecompose(t, s, id, Spanning)
	if st := s.Stats(); st.Evictions != 1 || st.StoreHits != 2 {
		t.Fatalf("Evictions=%d StoreHits=%d, want 1/2", st.Evictions, st.StoreHits)
	}
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(time.Second):
		t.Fatal("evicted decomposition still reachable one GC after eviction")
	}
}

// TestEvictionWithoutStoreRecomputes: the residency bound works with
// persistence disabled too — evicted entries just repack on demand.
func TestEvictionWithoutStoreRecomputes(t *testing.T) {
	g := graph.Hypercube(4)
	s := New(Config{MaxConcurrent: 2, MaxResident: 1})
	id := mustRegister(t, s, g)
	mustDecompose(t, s, id, Dominating)
	mustDecompose(t, s, id, Spanning)
	info := mustDecompose(t, s, id, Dominating)
	if info.Cached {
		t.Fatalf("evicted entry served as cached without a store")
	}
	st := s.Stats()
	if st.PackComputes != 3 || st.Evictions != 2 {
		t.Fatalf("PackComputes=%d Evictions=%d, want 3/2", st.PackComputes, st.Evictions)
	}
	if st.PackRequests != st.PackComputes+st.CacheHits+st.Coalesced+st.StoreHits {
		t.Fatalf("stats invariant broken under eviction: %+v", st)
	}
}

// TestConcurrentLoadWhileEvict hammers both kinds of one graph with
// MaxResident=1, so loads, evictions, reloads, and broadcasts interleave
// constantly. Run under -race this is the tentpole's concurrency test.
func TestConcurrentLoadWhileEvict(t *testing.T) {
	dir := t.TempDir()
	cfg := storeConfig(dir)
	cfg.MaxResident = 1
	g := graph.Hypercube(4)
	s := New(cfg)
	id := mustRegister(t, s, g)

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			kind := Dominating
			if w%2 == 1 {
				kind = Spanning
			}
			for i := 0; i < iters; i++ {
				if _, err := s.Decompose(id, kind); err != nil {
					t.Errorf("worker %d: Decompose: %v", w, err)
					return
				}
				if _, err := s.Broadcast(id, kind, []int{w % g.N()}, uint64(i)); err != nil {
					t.Errorf("worker %d: Broadcast: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.FlushStore()
	st := s.Stats()
	if st.PackRequests != st.PackComputes+st.CacheHits+st.Coalesced+st.StoreHits {
		t.Fatalf("stats invariant broken under churn: requests=%d computes=%d hits=%d coalesced=%d storeHits=%d",
			st.PackRequests, st.PackComputes, st.CacheHits, st.Coalesced, st.StoreHits)
	}
	if st.Requests != workers*iters {
		t.Fatalf("Requests = %d, want %d", st.Requests, workers*iters)
	}
}

// TestIngestInstallsSnapshot: a snapshot file produced elsewhere (here:
// by a first service) can be ingested into a fresh store-less service,
// registering its graph and priming the cache so the first Decompose is
// already a cache hit with zero packings.
func TestIngestInstallsSnapshot(t *testing.T) {
	dir := t.TempDir()
	g := graph.Hypercube(4)
	s1 := New(storeConfig(dir))
	id := mustRegister(t, s1, g)
	mustDecompose(t, s1, id, Spanning)
	s1.FlushStore()

	sn, err := snap.NewStore(dir).Load(id, string(Spanning), snap.OptionsDigest(11, 0))
	if err != nil {
		t.Fatalf("loading snapshot back: %v", err)
	}

	s2 := New(Config{MaxConcurrent: 2, PackSeed: 11})
	gotID, err := s2.Ingest(sn)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if gotID != id {
		t.Fatalf("Ingest registered id %s, want %s", gotID, id)
	}
	info := mustDecompose(t, s2, id, Spanning)
	if !info.Cached {
		t.Fatalf("post-ingest decomposition reported uncached")
	}
	if st := s2.Stats(); st.PackComputes != 0 || st.Graphs != 1 {
		t.Fatalf("post-ingest stats: PackComputes=%d Graphs=%d, want 0/1", st.PackComputes, st.Graphs)
	}
	if _, err := s2.Broadcast(id, Spanning, []int{1, 2}, 3); err != nil {
		t.Fatalf("Broadcast over ingested snapshot: %v", err)
	}

	// A service with different packing options must refuse the snapshot.
	s3 := New(Config{MaxConcurrent: 2, PackSeed: 99})
	if _, err := s3.Ingest(sn); err == nil {
		t.Fatalf("Ingest accepted a snapshot with a foreign options digest")
	}

	// A snapshot that fails the oracles is refused and leaves no cache
	// entry behind: the graph's next Decompose packs it afresh.
	bad := *sn
	bad.Trees = append([]check.Weighted(nil), sn.Trees...)
	for i := range bad.Trees {
		bad.Trees[i].Weight *= 4
	}
	s4 := New(Config{MaxConcurrent: 2, PackSeed: 11})
	if _, err := s4.Ingest(&bad); err == nil {
		t.Fatalf("Ingest accepted an overloaded packing")
	}
	if info := mustDecompose(t, s4, id, Spanning); info.Cached || s4.Stats().PackComputes != 1 {
		t.Fatalf("Decompose after a rejected ingest: %+v, want one fresh packing", info)
	}
}

// TestStoreErrNotFoundSentinel pins the miss classification Load
// promises callers: absent file → ErrNotFound (a plain miss), present
// but damaged → not ErrNotFound (an error worth counting separately).
func TestStoreErrNotFoundSentinel(t *testing.T) {
	st := snap.NewStore(t.TempDir())
	_, err := st.Load("g0000000000000000", string(Dominating), 0)
	if !errors.Is(err, snap.ErrNotFound) {
		t.Fatalf("missing file: got %v, want ErrNotFound", err)
	}
}
