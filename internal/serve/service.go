// Package serve is the concurrent decomposition-and-broadcast service:
// the layer that turns the packers and the cast.Scheduler handle into a
// system that accepts traffic. It provides
//
//   - a graph registry keyed by content hash, sharded into
//     goroutine-safe segments so millions of registered graphs do not
//     contend on one lock (registering the same graph twice yields the
//     same id and shares all cached state),
//   - a per-(graph, kind) packing cache with singleflight semantics — N
//     concurrent requests for the same decomposition trigger exactly one
//     cds.Pack / stp.Pack computation, everyone else waits for it,
//   - an optional durable snapshot store (internal/snap): computed
//     decompositions are persisted write-behind, a cache miss consults
//     the store before packing, and a warm restart therefore serves
//     every previously packed (graph, kind) without a single repack,
//   - per-segment LRU eviction (Config.MaxResident) bounding how many
//     decompositions stay resident; evicted entries reload from the
//     store — or repack — on demand,
//   - a free list of Scheduler handles per cached decomposition, seeded
//     with the prototype handle and holding at most MaxConcurrent, so
//     concurrent demands share the immutable scheduler core and reuse
//     warm per-run buffers (zero steady-state allocations per handle);
//     only the cache entry references it, so an evicted decomposition
//     is collected at the next GC,
//   - bounded-concurrency demand execution with per-graph and global
//     stats (requests, cache hits, store hits, rounds, congestion
//     maxima).
//
// # Caller invariants
//
// A Service's decompositions are a pure function of (graph content,
// Config.PackSeed, Config.Epsilon); callers that share a snapshot store
// between services must use identical PackSeed/Epsilon, and Ingest
// refuses snapshots whose options digest differs. Write-behind saves
// are asynchronous: call FlushStore before relying on the store's
// on-disk state (shutdown, restart tests). Graphs handed to
// RegisterGraph and results returned from Stats must be treated as
// immutable.
//
// The HTTP front end over this service lives in handler.go and is
// served by cmd/serve.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cast"
	"repro/internal/cds"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/stp"
)

// Kind selects which decomposition a request is served over.
type Kind string

const (
	// Dominating is the Theorem 1.2 dominating-tree packing, served in
	// the V-CONGEST model (Corollary 1.4).
	Dominating Kind = "dominating"
	// Spanning is the Theorem 1.3 spanning-tree packing, served in the
	// E-CONGEST model (Corollary 1.5).
	Spanning Kind = "spanning"
)

func (k Kind) valid() bool { return k == Dominating || k == Spanning }

// registryShards is the number of goroutine-safe registry segments.
// GraphIDs hash uniformly across them, so contention on any one
// segment lock is 1/registryShards of the single-lock design.
const registryShards = 8

// Config tunes a Service; the zero value serves with the packers'
// calibrated defaults, a conservative concurrency bound, no
// persistence, and unbounded residency.
type Config struct {
	// MaxConcurrent bounds how many demands execute simultaneously
	// (scheduler rounds are CPU-bound; more in flight than cores just
	// grows the per-decomposition free lists). Default 8.
	MaxConcurrent int
	// PackSeed seeds the packing computations (default 0, packer
	// defaults). Fixed per service so a graph's decomposition is a pure
	// function of its content hash.
	PackSeed uint64
	// Epsilon overrides the spanning-tree packer's ε when it lies in
	// (0, 1); values outside that range fall back to the packer default.
	Epsilon float64
	// MaxMsgsPerDemand bounds a single demand's message count; oversized
	// demands are rejected before any scheduler work. Default 65536.
	MaxMsgsPerDemand int
	// MaxBatch bounds how many demands one BroadcastBatch call may
	// carry; oversized batches are rejected whole. Default 1024.
	MaxBatch int
	// StoreDir, when non-empty, enables the durable snapshot store:
	// computed decompositions are persisted there write-behind, and a
	// packing-cache miss consults the store before running a packer, so
	// a warm restart over the same directory repacks nothing.
	StoreDir string
	// MaxResident bounds how many decompositions stay resident per
	// registry segment (0 = unlimited). Beyond the bound the least
	// recently used completed decomposition is evicted; it reloads from
	// the store (or repacks) on its next request.
	MaxResident int
}

// Service is the concurrent decomposition service. All methods are safe
// for concurrent use.
type Service struct {
	cfg    Config
	sem    chan struct{} // bounded-concurrency demand execution
	store  *snap.Store   // nil when persistence is disabled
	digest uint64        // options digest keying this service's snapshots

	shards [registryShards]registryShard
	regSeq atomic.Uint64 // registration-order allocator for stable stats

	saves sync.WaitGroup // in-flight write-behind snapshot saves

	// Global counters, each described once in counters.
	requests, messages, rounds                       atomic.Uint64
	packRequests, packComputes, cacheHits, coalesced atomic.Uint64
	storeHits, storeMisses, storeErrors, evictions   atomic.Uint64
	faultedRequests, messagesLost, retries           atomic.Uint64
	maxVCong, maxECong                               atomic.Int64 // per-demand congestion maxima seen
	// pairs is the chaos delivered/expected pair. It lives behind one
	// mutex so a Stats snapshot can never observe expected bumped
	// without its delivered half (a torn read would report a
	// transiently wrong delivered fraction).
	pairs pairCount

	batchSeq atomic.Uint64 // batch-id allocator (ids start at 1)

	// Observability (see obs.go): the metric registry pulling from the
	// counters above at scrape time, per-phase latency histograms, size
	// histograms, and the ring of recent request traces.
	metrics   *obs.Registry
	phaseHist [numPhases]*obs.Histogram
	msgsHist  *obs.Histogram // messages per served demand
	batchHist *obs.Histogram // demands per accepted batch
	traces    *obs.Ring
}

// counter is one global Service counter: its atomic, the Stats field it
// snapshots into, and its /metrics name and help.
type counter struct {
	v          *atomic.Uint64
	field      *uint64
	name, help string
}

// counters declares every global counter once: Stats copies each into
// its field of st, and initObs exposes each under its metric name.
func (s *Service) counters(st *Stats) []counter {
	return []counter{
		{&s.requests, &st.Requests, "repro_serve_requests_total", "Broadcast demands served."},
		{&s.messages, &st.Messages, "repro_serve_messages_total", "Messages disseminated."},
		{&s.rounds, &st.Rounds, "repro_serve_rounds_total", "Scheduler rounds across all demands."},
		{&s.packRequests, &st.PackRequests, "repro_serve_pack_requests_total", "Decomposition requests, including cached."},
		{&s.packComputes, &st.PackComputes, "repro_serve_pack_computes_total", "Packings actually computed."},
		{&s.cacheHits, &st.CacheHits, "repro_serve_cache_hits_total", "Decomposition requests served from a completed cache entry."},
		{&s.coalesced, &st.Coalesced, "repro_serve_coalesced_total", "Decomposition requests that waited on an in-flight packing."},
		{&s.storeHits, &st.StoreHits, "repro_serve_store_hits_total", "Cache misses restored from the snapshot store."},
		{&s.storeMisses, &st.StoreMisses, "repro_serve_store_misses_total", "Store lookups that found no snapshot."},
		{&s.storeErrors, &st.StoreErrors, "repro_serve_store_errors_total", "Corrupt or unreadable snapshots and failed saves."},
		{&s.evictions, &st.Evictions, "repro_serve_evictions_total", "Decompositions evicted by the residency bound."},
		{&s.faultedRequests, &st.FaultedRequests, "repro_serve_faulted_requests_total", "Faulted (chaos) demands served."},
		{&s.messagesLost, &st.MessagesLost, "repro_serve_messages_lost_total", "Messages given up after fault retries."},
		{&s.retries, &st.Retries, "repro_serve_retries_total", "Surviving-tree reroutes performed."},
	}
}

// registryShard is one goroutine-safe segment of the graph registry:
// a slice of the id→graph map plus the LRU list of decompositions
// resident in this segment (front = most recently used). The shard
// mutex also covers the packs map of every graphEntry owned by the
// shard, so cache checkout, insertion, and eviction are one critical
// section.
type registryShard struct {
	mu     sync.Mutex // guards graphs, lru
	graphs map[string]*graphEntry
	lru    *list.List // of *residentEntry
}

// residentEntry is one resident decomposition on a shard's LRU list.
type residentEntry struct {
	e    *graphEntry
	kind Kind
	pe   *packEntry
}

// pairCount is the (delivered, expected) chaos accounting pair. Both
// halves move together under one lock: BroadcastFaulted adds them as a
// unit and Stats loads them as a unit, so every snapshot sees a
// consistent delivered fraction.
type pairCount struct {
	mu        sync.Mutex // guards delivered, expected
	delivered uint64
	expected  uint64
}

func (p *pairCount) add(delivered, expected int) {
	p.mu.Lock()
	p.delivered += uint64(delivered)
	p.expected += uint64(expected)
	p.mu.Unlock()
}

func (p *pairCount) load() (delivered, expected uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delivered, p.expected
}

// graphEntry is one registered graph with its per-kind packing cache
// and stats. packs is guarded by the owning shard's mutex (cache
// checkout and LRU maintenance must be atomic across the shard's
// graphs, so the lock cannot live here).
type graphEntry struct {
	id    string
	seq   uint64 // registration order, for stable stats listings
	g     *graph.Graph
	shard *registryShard
	packs map[Kind]*packEntry

	requests  atomic.Uint64
	rounds    atomic.Uint64
	cacheHits atomic.Uint64
	coalesced atomic.Uint64
	computes  atomic.Uint64
	storeHits atomic.Uint64
	maxVCong  atomic.Int64
	maxECong  atomic.Int64

	faultedRequests atomic.Uint64
	messagesLost    atomic.Uint64
	retries         atomic.Uint64
	pairs           pairCount
}

// packEntry is one cached decomposition: the singleflight slot, the
// prototype scheduler whose immutable core every clone shares, and the
// entry's free list of idle handles. done is closed once the leader
// finished (computing, loading from the store, or failing); proto/
// clones/trees/wtrees/size/err are written only before that close, so
// followers read them race-free after <-done. elem is the entry's node
// on its shard's LRU list (nil once evicted); it is guarded by the
// shard mutex like the packs map.
type packEntry struct {
	done  chan struct{}
	proto *cast.Scheduler
	// clones holds the idle scheduler handles, the prototype first. At
	// most Config.MaxConcurrent demands run at once, so the entry never
	// owns more handles than that capacity and a return never blocks.
	// Only the entry references the channel: once evicted, its handles
	// and the decomposition they share are garbage at the next GC.
	clones  chan *cast.Scheduler
	wtrees  []cast.WeightedTree // the packed trees, for snapshotting
	trees   int
	size    float64
	profile *PackProfile // packer-internal counters; nil for store/ingest loads
	err     error
	elem    *list.Element
}

// New builds an empty service.
func New(cfg Config) *Service {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 8
	}
	if cfg.MaxMsgsPerDemand <= 0 {
		cfg.MaxMsgsPerDemand = 65536
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	s := &Service{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		digest: snap.OptionsDigest(cfg.PackSeed, cfg.Epsilon),
	}
	if cfg.StoreDir != "" {
		s.store = snap.NewStore(cfg.StoreDir)
	}
	for i := range s.shards {
		s.shards[i].graphs = make(map[string]*graphEntry) //repro:allow guardedfield constructor: service not yet published
		s.shards[i].lru = list.New()                      //repro:allow guardedfield constructor: service not yet published
	}
	s.initObs()
	return s
}

// GraphID is the registry key: a content hash over the canonical
// (sorted, deduplicated) edge list, so isomorphic inputs with the same
// labeling always map to the same entry regardless of edge order or
// duplicates in the request. It is the same key internal/snap embeds in
// snapshot files.
func GraphID(g *graph.Graph) string { return snap.GraphKey(g) }

// shardFor maps a graph id to its registry segment.
func (s *Service) shardFor(id string) *registryShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &s.shards[h.Sum32()%registryShards]
}

// Register adds a graph from an edge list (duplicates and self-loops
// dropped, as in decomp.NewGraph) and returns its content-hash id.
// Registering an already-known graph is an idempotent no-op returning
// the existing id. Edge endpoints are validated against [0, n) here:
// this is the network-facing entry point, and the graph builder treats
// out-of-range endpoints as a programming error (panic). Every packable
// graph is connected, so n > len(edges)+1 is rejected too, which bounds
// the vertex arrays a short request can make the registry allocate.
func (s *Service) Register(n int, edges [][2]int) (string, error) {
	if n <= 0 {
		return "", fmt.Errorf("serve: graph must have n > 0 vertices (got %d)", n)
	}
	for i, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return "", fmt.Errorf("serve: edge %d (%d,%d) out of range [0,%d)", i, e[0], e[1], n)
		}
	}
	if n > len(edges)+1 {
		return "", fmt.Errorf("serve: %d edges cannot connect %d vertices", len(edges), n)
	}
	return s.RegisterGraph(graph.FromEdgeList(n, edges))
}

// RegisterGraph registers an already-built graph (the in-process path,
// which Ingest also takes; unlike Register it does not bound n by the
// edge count) and returns its id. An id hit is verified against the
// stored graph's canonical edge list, so a content-hash collision
// between distinct graphs surfaces as an error instead of silently
// serving one graph's decomposition for another.
func (s *Service) RegisterGraph(g *graph.Graph) (string, error) {
	id := GraphID(g)
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.graphs[id]; ok {
		if !sameGraph(e.g, g) {
			return "", fmt.Errorf("serve: graph id collision on %s (registry holds a different graph)", id)
		}
		return id, nil
	}
	sh.graphs[id] = &graphEntry{
		id:    id,
		seq:   s.regSeq.Add(1),
		g:     g,
		shard: sh,
		packs: make(map[Kind]*packEntry),
	}
	return id, nil
}

// sameGraph compares canonical (sorted, deduped) edge lists.
func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	be := b.Edges()
	for i, e := range a.Edges() {
		if e != be[i] {
			return false
		}
	}
	return true
}

// Graph returns a registered graph by id.
func (s *Service) Graph(id string) (*graph.Graph, bool) {
	e, ok := s.lookup(id)
	if !ok {
		return nil, false
	}
	return e.g, true
}

func (s *Service) lookup(id string) (*graphEntry, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.graphs[id]
	sh.mu.Unlock()
	return e, ok
}

// DecompInfo describes a cached (or just-computed) decomposition.
type DecompInfo struct {
	// GraphID is the content-hash registry key the decomposition
	// belongs to.
	GraphID string `json:"graph_id"`
	// Kind is the decomposition kind this info describes.
	Kind Kind `json:"kind"`
	// Trees is the number of trees in the packing.
	Trees int `json:"trees"`
	// Size is the packing size Σ w_τ.
	Size float64 `json:"size"`
	// Cached reports whether this request was served without running a
	// packer — from the in-memory cache or the snapshot store (false
	// exactly for the one request that triggered the packing).
	Cached bool `json:"cached"`
	// Profile is the packer-internal instrumentation of the computation
	// that produced this decomposition. Nil when the decomposition was
	// restored from the snapshot store or ingested (no packer ran in
	// this process, so there is nothing to profile).
	Profile *PackProfile `json:"profile,omitempty"`
}

// Decompose returns the graph's decomposition of the given kind,
// computing and caching it on first request. Concurrent first requests
// singleflight: exactly one runs the packer, the rest block until it
// finishes and share the result (or its error, which is cached too —
// the packers are deterministic, so retrying cannot help). With a
// snapshot store configured, the cache-missing leader first tries the
// store and only packs when no valid snapshot exists. On error the
// returned info is zero: a failed packing has no trees or size to report.
func (s *Service) Decompose(id string, kind Kind) (DecompInfo, error) {
	return s.DecomposeContext(context.Background(), id, kind)
}

// DecomposeContext is Decompose with a context carrying the request's
// trace (obs.WithTrace): the registry and pack phases are recorded as
// spans and the computing leader's pack profile is attached under
// "pack_profile". The context does not (yet) cancel an in-flight
// packing — the packers run to completion once started.
func (s *Service) DecomposeContext(ctx context.Context, id string, kind Kind) (DecompInfo, error) {
	tr := obs.FromContext(ctx)
	start := time.Now()
	e, ok := s.lookup(id)
	if !ok {
		return DecompInfo{}, fmt.Errorf("serve: unknown graph %q", id)
	}
	s.observePhase(tr, phaseRegistry, start)
	pe, hit, err := s.pack(tr, e, kind)
	if err != nil {
		return DecompInfo{}, err
	}
	if pe.err != nil {
		return DecompInfo{}, pe.err
	}
	info := DecompInfo{GraphID: id, Kind: kind, Trees: pe.trees, Size: pe.size, Cached: hit}
	if !hit {
		info.Profile = pe.profile // the compute leader reports what it ran
	}
	return info, nil
}

// pack is the singleflight packing cache: the first caller for a
// (graph, kind) becomes the leader; everyone else waits on the entry's
// done channel. hit reports whether this caller avoided running a
// packer — a follower that finds the entry already complete is a true
// cache hit, one that blocks the full pack duration behind the
// in-flight leader is counted as coalesced (the two tell very
// different latency stories), and a leader that restores the
// decomposition from the snapshot store is a store hit. Every request
// lands in exactly one of those buckets or in PackComputes, so
// PackRequests == PackComputes + CacheHits + Coalesced + StoreHits
// always holds. tr (nil allowed) receives store_load and pack phase
// spans on the leader paths that perform that work.
func (s *Service) pack(tr *obs.Trace, e *graphEntry, kind Kind) (*packEntry, bool, error) {
	if !kind.valid() {
		return nil, false, fmt.Errorf("serve: unknown decomposition kind %q", kind)
	}
	s.packRequests.Add(1)
	sh := e.shard
	sh.mu.Lock()
	if pe, ok := e.packs[kind]; ok {
		if pe.elem != nil {
			sh.lru.MoveToFront(pe.elem)
		}
		sh.mu.Unlock()
		select {
		case <-pe.done:
			s.cacheHits.Add(1)
			e.cacheHits.Add(1)
		default:
			s.coalesced.Add(1)
			e.coalesced.Add(1)
			<-pe.done
		}
		return pe, true, nil
	}
	pe := &packEntry{done: make(chan struct{})}
	e.packs[kind] = pe
	pe.elem = sh.lru.PushFront(&residentEntry{e: e, kind: kind, pe: pe})
	s.evictExcessLocked(sh)
	sh.mu.Unlock()

	// Leader path: consult the snapshot store before packing. Any load
	// failure — missing, torn, tampered, wrong version, oracle-rejected
	// — degrades to a recompute, never to a request error.
	if s.store != nil {
		loadStart := time.Now()
		if sn, err := s.store.Load(e.id, string(kind), s.digest); err == nil {
			if aerr := s.adopt(e, kind, pe, sn); aerr == nil {
				s.observePhase(tr, phaseStoreLoad, loadStart)
				s.storeHits.Add(1)
				e.storeHits.Add(1)
				close(pe.done)
				return pe, true, nil
			}
			s.storeErrors.Add(1)
		} else if errors.Is(err, snap.ErrNotFound) {
			s.storeMisses.Add(1)
		} else {
			s.storeErrors.Add(1)
		}
		s.observePhase(tr, phaseStoreLoad, loadStart)
	}

	s.packComputes.Add(1)
	e.computes.Add(1)
	packStart := time.Now()
	pe.trees, pe.size, pe.wtrees, pe.proto, pe.profile, pe.err = s.compute(e.g, kind)
	s.observePhase(tr, phasePack, packStart)
	if pe.err == nil {
		tr.Attach("pack_profile", pe.profile)
	}
	if pe.proto != nil {
		s.seedClones(pe)
	}
	close(pe.done)
	if s.store != nil && pe.err == nil {
		s.saveAsync(tr, e, kind, pe)
	}
	return pe, false, nil
}

// evictExcessLocked drops least-recently-used completed decompositions
// from the shard until it is back under the residency bound. In-flight
// entries (leader still packing or loading) are skipped: their waiters
// hold the entry pointer and the work is about to be needed. Called
// with the shard mutex held.
func (s *Service) evictExcessLocked(sh *registryShard) {
	if s.cfg.MaxResident <= 0 {
		return
	}
	for sh.lru.Len() > s.cfg.MaxResident {
		evicted := false
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			re := el.Value.(*residentEntry)
			select {
			case <-re.pe.done:
			default:
				continue // in flight: not evictable
			}
			sh.lru.Remove(el)
			re.pe.elem = nil
			delete(re.e.packs, re.kind)
			s.evictions.Add(1)
			evicted = true
			break
		}
		if !evicted {
			return // everything over the bound is still in flight
		}
	}
}

// adopt installs a verified snapshot as this entry's decomposition:
// the trees are checked against the internal/check packing oracles for
// the registered graph (a tampered or stale file can never poison
// results) and the prototype scheduler is rebuilt from them exactly as
// compute would have.
func (s *Service) adopt(e *graphEntry, kind Kind, pe *packEntry, sn *snap.Snapshot) error {
	if err := sn.Verify(e.g); err != nil {
		return err
	}
	trees := make([]cast.WeightedTree, len(sn.Trees))
	for i, t := range sn.Trees {
		trees[i] = cast.WeightedTree{Tree: t.Tree, Weight: t.Weight}
	}
	model := sim.VCongest
	if kind == Spanning {
		model = sim.ECongest
	}
	sched, err := cast.NewScheduler(e.g, trees, model)
	if err != nil {
		return fmt.Errorf("serve: scheduler construction from snapshot: %w", err)
	}
	pe.trees = len(trees)
	pe.size = sn.Size
	pe.wtrees = trees
	pe.proto = sched
	s.seedClones(pe)
	return nil
}

// seedClones gives a freshly built entry its free list, holding the
// prototype handle itself so the first demand needs no clone.
func (s *Service) seedClones(pe *packEntry) {
	pe.clones = make(chan *cast.Scheduler, s.cfg.MaxConcurrent)
	pe.clones <- pe.proto
}

// saveAsync persists a freshly computed decomposition write-behind:
// the request that computed it returns immediately and the snapshot
// lands on disk in the background. FlushStore waits for all pending
// saves (call it before shutdown or before asserting on-disk state).
// The persist phase lands on the computing request's trace after the
// fact — the trace ring holds live pointers, so the span shows up in
// later snapshots of the same trace.
func (s *Service) saveAsync(tr *obs.Trace, e *graphEntry, kind Kind, pe *packEntry) {
	s.saves.Add(1)
	go func() {
		defer s.saves.Done()
		start := time.Now()
		trees := make([]check.Weighted, len(pe.wtrees))
		for i, t := range pe.wtrees {
			trees[i] = check.Weighted{Tree: t.Tree, Weight: t.Weight}
		}
		sn, err := snap.Capture(e.g, string(kind), s.digest, trees, pe.size)
		if err == nil {
			err = s.store.Save(sn)
		}
		if err != nil {
			s.storeErrors.Add(1)
		}
		s.observePhase(tr, phasePersist, start)
	}()
}

// FlushStore blocks until every pending write-behind snapshot save has
// completed. A no-op when no store is configured.
func (s *Service) FlushStore() { s.saves.Wait() }

// Ingest registers a snapshot's graph and installs its decomposition
// into the cache without packing — the interchange path for files
// produced by cmd/decompose -o or another service sharing this
// service's packing options. The snapshot must carry this service's
// options digest (otherwise its trees would differ from what this
// service computes, breaking replay determinism) and must pass the
// packing oracles for its own graph. With a store configured the
// snapshot is also persisted under its canonical key, so it survives
// further restarts. Returns the registered graph id.
func (s *Service) Ingest(sn *snap.Snapshot) (string, error) {
	if sn.OptionsDigest != s.digest {
		return "", fmt.Errorf("serve: snapshot options digest %016x does not match service digest %016x (PackSeed/Epsilon differ)",
			sn.OptionsDigest, s.digest)
	}
	kind := Kind(sn.Kind)
	if !kind.valid() {
		return "", fmt.Errorf("serve: unknown decomposition kind %q", sn.Kind)
	}
	g := sn.Graph()
	id, err := s.RegisterGraph(g)
	if err != nil {
		return "", err
	}
	e, _ := s.lookup(id)
	// Verify before installing: a rejected snapshot must leave no cache
	// entry behind, so the graph's next request packs it afresh.
	pe := &packEntry{done: make(chan struct{})}
	if err := s.adopt(e, kind, pe, sn); err != nil {
		return "", fmt.Errorf("serve: ingested snapshot rejected: %w", err)
	}
	close(pe.done)
	sh := e.shard
	sh.mu.Lock()
	if _, ok := e.packs[kind]; ok {
		sh.mu.Unlock()
		return id, nil // already resident; the cached entry wins
	}
	e.packs[kind] = pe
	pe.elem = sh.lru.PushFront(&residentEntry{e: e, kind: kind, pe: pe})
	s.evictExcessLocked(sh)
	sh.mu.Unlock()
	if s.store != nil {
		s.saveAsync(nil, e, kind, pe)
	}
	return id, nil
}

// compute runs the packer for the kind, builds the prototype scheduler
// whose core every handle will share, and condenses the packer's
// run diagnostics into a PackProfile.
func (s *Service) compute(g *graph.Graph, kind Kind) (int, float64, []cast.WeightedTree, *cast.Scheduler, *PackProfile, error) {
	var (
		trees   []cast.WeightedTree
		size    float64
		model   sim.Model
		profile *PackProfile
	)
	switch kind {
	case Dominating:
		p, err := cds.Pack(g, cds.Options{Seed: s.cfg.PackSeed})
		if err != nil {
			return 0, 0, nil, nil, nil, fmt.Errorf("serve: dominating-tree packing: %w", err)
		}
		trees = make([]cast.WeightedTree, len(p.Trees))
		for i, t := range p.Trees {
			trees[i] = cast.WeightedTree{Tree: t.Tree, Weight: t.Weight}
		}
		size = p.Size()
		model = sim.VCongest
		profile = &PackProfile{
			Kind:         kind,
			Trees:        len(trees),
			MaxLoad:      float64(p.Stats.MaxLoad),
			Layers:       p.Stats.Layers,
			Classes:      p.Stats.Classes,
			ValidClasses: p.Stats.ValidClasses,
			Matched:      p.Stats.Matched,
			Unmatched:    p.Stats.Unmatched,
		}
	case Spanning:
		p, err := stp.Pack(g, stp.Options{Seed: s.cfg.PackSeed, Epsilon: s.cfg.Epsilon})
		if err != nil {
			return 0, 0, nil, nil, nil, fmt.Errorf("serve: spanning-tree packing: %w", err)
		}
		trees = make([]cast.WeightedTree, len(p.Trees))
		for i, t := range p.Trees {
			trees[i] = cast.WeightedTree{Tree: t.Tree, Weight: t.Weight}
		}
		size = p.Size()
		model = sim.ECongest
		profile = &PackProfile{
			Kind:              kind,
			Trees:             len(trees),
			MaxLoad:           p.Stats.MaxLoad,
			Iterations:        p.Stats.Iterations,
			StopChecksExact:   p.Stats.StopChecksExact,
			StopChecksSkipped: p.Stats.StopChecksSkipped,
			DedupHits:         p.Stats.DedupHits,
			Subgraphs:         p.Stats.Subgraphs,
			SubgraphsPacked:   p.Stats.SubgraphsPacked,
		}
	}
	sched, err := cast.NewScheduler(g, trees, model)
	if err != nil {
		return 0, 0, nil, nil, nil, fmt.Errorf("serve: scheduler construction: %w", err)
	}
	return len(trees), size, trees, sched, profile, nil
}

// Broadcast serves one demand over the graph's cached decomposition
// (packing it first if needed): a Scheduler handle is checked out of the
// decomposition's free list, the demand runs under the service's
// concurrency bound, and the result is identical to a serial cast Run
// with the same (demand, seed).
func (s *Service) Broadcast(id string, kind Kind, sources []int, seed uint64) (cast.Result, error) {
	return s.BroadcastContext(context.Background(), id, kind, sources, seed)
}

// BroadcastContext is Broadcast with request-level cancellation: a done
// context aborts both the wait for an execution slot and the scheduler
// round loop itself, and in either case the slot is released and the
// handle returned to its free list, so a client disconnect mid-broadcast
// never leaks service capacity.
func (s *Service) BroadcastContext(ctx context.Context, id string, kind Kind, sources []int, seed uint64) (cast.Result, error) {
	e, pe, err := s.checkoutDemand(ctx, id, kind, sources)
	if err != nil {
		return cast.Result{}, err
	}
	res, err := s.runDemand(ctx, pe, func(c *cast.Scheduler) (cast.Result, error) {
		return c.RunContext(ctx, cast.Demand{Sources: sources}, seed)
	})
	if err != nil {
		return cast.Result{}, err
	}
	s.recordDemand(e, len(sources), res)
	return res, nil
}

// BroadcastFaulted serves one demand under a fault plan. Partial
// delivery is a structured FaultResult, never an error — errors are
// reserved for unknown graphs/kinds, invalid demands or plans, and
// cancellation — so a chaos run can never poison the packing cache or
// be mistaken for a service failure.
func (s *Service) BroadcastFaulted(ctx context.Context, id string, kind Kind, sources []int, seed uint64, plan cast.FaultPlan) (cast.FaultResult, error) {
	e, pe, err := s.checkoutDemand(ctx, id, kind, sources)
	if err != nil {
		return cast.FaultResult{}, err
	}
	var res cast.FaultResult
	_, err = s.runDemand(ctx, pe, func(c *cast.Scheduler) (cast.Result, error) {
		var ferr error
		res, ferr = c.RunFaultedContext(ctx, cast.Demand{Sources: sources}, seed, plan)
		return res.Result, ferr
	})
	if err != nil {
		return cast.FaultResult{}, err
	}
	s.recordDemand(e, len(sources), res.Result)
	s.faultedRequests.Add(1)
	e.faultedRequests.Add(1)
	s.messagesLost.Add(uint64(res.MessagesLost))
	e.messagesLost.Add(uint64(res.MessagesLost))
	s.retries.Add(uint64(res.Retries))
	e.retries.Add(uint64(res.Retries))
	s.pairs.add(res.PairsDelivered, res.PairsExpected)
	e.pairs.add(res.PairsDelivered, res.PairsExpected)
	return res, nil
}

// checkoutDemand validates a demand and resolves its packing cache
// entry (computing the decomposition if needed). The registry phase
// (lookup + validation) and any leader-side pack phases land on the
// context's trace.
func (s *Service) checkoutDemand(ctx context.Context, id string, kind Kind, sources []int) (*graphEntry, *packEntry, error) {
	tr := obs.FromContext(ctx)
	start := time.Now()
	e, ok := s.lookup(id)
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown graph %q", id)
	}
	if err := s.validateSources(e, sources); err != nil {
		return nil, nil, err
	}
	s.observePhase(tr, phaseRegistry, start)
	pe, _, err := s.pack(tr, e, kind)
	if err != nil {
		return nil, nil, err
	}
	if pe.err != nil {
		return nil, nil, pe.err
	}
	return e, pe, nil
}

// validateSources checks one demand's source list against the graph and
// the per-demand message bound (the demand-level half of checkout, also
// applied per entry by the batch path).
func (s *Service) validateSources(e *graphEntry, sources []int) error {
	if len(sources) == 0 {
		return fmt.Errorf("serve: empty demand")
	}
	if len(sources) > s.cfg.MaxMsgsPerDemand {
		return fmt.Errorf("serve: demand of %d messages exceeds limit %d", len(sources), s.cfg.MaxMsgsPerDemand)
	}
	for i, src := range sources {
		if src < 0 || src >= e.g.N() {
			return fmt.Errorf("serve: source %d out of range [0,%d) at index %d", src, e.g.N(), i)
		}
	}
	return nil
}

// runDemand executes one demand under the concurrency bound with an
// idle handle from the entry's free list, or a fresh clone of the
// prototype when every handle is busy, releasing both slot and handle
// on every path (a handle's buffers are cleared at Run entry, so a
// cancelled one is safe to reuse). The checkout (slot wait + handle)
// and the round loop are the clone and run trace phases.
func (s *Service) runDemand(ctx context.Context, pe *packEntry, run func(*cast.Scheduler) (cast.Result, error)) (cast.Result, error) {
	tr := obs.FromContext(ctx)
	cloneStart := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return cast.Result{}, ctx.Err()
	}
	var c *cast.Scheduler
	select {
	case c = <-pe.clones:
	default:
		c = pe.proto.Clone()
	}
	s.observePhase(tr, phaseClone, cloneStart)
	runStart := time.Now()
	res, err := run(c)
	s.observePhase(tr, phaseRun, runStart)
	pe.clones <- c
	<-s.sem
	if err != nil {
		return cast.Result{}, err
	}
	return res, nil
}

// recordDemand folds one served demand into the global and per-graph
// counters.
func (s *Service) recordDemand(e *graphEntry, msgs int, res cast.Result) {
	s.requests.Add(1)
	e.requests.Add(1)
	s.messages.Add(uint64(msgs))
	s.msgsHist.Observe(int64(msgs))
	s.rounds.Add(uint64(res.Rounds))
	e.rounds.Add(uint64(res.Rounds))
	maxInt64(&s.maxVCong, int64(res.MaxVertexCongestion))
	maxInt64(&e.maxVCong, int64(res.MaxVertexCongestion))
	maxInt64(&s.maxECong, int64(res.MaxEdgeCongestion))
	maxInt64(&e.maxECong, int64(res.MaxEdgeCongestion))
}

// maxInt64 lifts m to at least v.
func maxInt64(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// GraphStats is the per-graph slice of the service counters.
type GraphStats struct {
	// ID is the graph's content-hash registry key.
	ID string `json:"id"`
	// N and M are the graph's vertex and edge counts.
	N int `json:"n"`
	M int `json:"m"`
	// Requests counts broadcast demands served against this graph.
	Requests uint64 `json:"requests"`
	// Rounds accumulates scheduler rounds across this graph's demands.
	Rounds uint64 `json:"rounds"`
	// CacheHits, Coalesced, PackComputes, and StoreHits split this
	// graph's decomposition requests the same way the global Stats do.
	CacheHits    uint64 `json:"cache_hits"`
	Coalesced    uint64 `json:"coalesced"`
	PackComputes uint64 `json:"pack_computes"`
	StoreHits    uint64 `json:"store_hits"`
	// MaxVertexCongestion and MaxEdgeCongestion are the per-demand
	// congestion maxima seen on this graph.
	MaxVertexCongestion int64 `json:"max_vertex_congestion"`
	MaxEdgeCongestion   int64 `json:"max_edge_congestion"`
	// Chaos-mode counters: faulted demands served against this graph,
	// their reroutes and losses, and the achieved delivered fraction
	// across all of them (1 when no faulted demand has been served).
	FaultedRequests   uint64  `json:"faulted_requests"`
	MessagesLost      uint64  `json:"messages_lost"`
	Retries           uint64  `json:"retries"`
	DeliveredFraction float64 `json:"delivered_fraction"`
}

// Stats is a snapshot of the service counters.
type Stats struct {
	// Graphs is the number of registered graphs.
	Graphs int `json:"graphs"`
	// Requests, Messages, and Rounds count served demands, disseminated
	// messages, and accumulated scheduler rounds.
	Requests uint64 `json:"requests"`
	Messages uint64 `json:"messages"`
	Rounds   uint64 `json:"rounds"`
	// PackRequests counts decomposition requests; PackComputes the
	// packings actually run. Every request is exactly one of the
	// compute leader, a cache hit, a coalesced follower, or a store
	// hit: PackRequests == PackComputes + CacheHits + Coalesced +
	// StoreHits.
	PackRequests uint64 `json:"pack_requests"`
	PackComputes uint64 `json:"pack_computes"`
	// CacheHits counts decomposition requests served from a completed
	// cache entry; Coalesced the ones that had to wait out an in-flight
	// packing (singleflight followers). Hits are cheap, coalesced
	// requests pay the full pack latency — the split keeps the two
	// distinguishable in latency analysis.
	CacheHits uint64 `json:"cache_hits"`
	Coalesced uint64 `json:"coalesced"`
	// StoreHits counts cache misses restored from the snapshot store
	// instead of packed; StoreMisses the store lookups that found
	// nothing; StoreErrors the corrupt/unreadable snapshots and failed
	// write-behind saves (each such miss or error degrades to a
	// recompute, never to a request error).
	StoreHits   uint64 `json:"store_hits"`
	StoreMisses uint64 `json:"store_misses"`
	StoreErrors uint64 `json:"store_errors"`
	// Resident is the number of decompositions currently held in
	// memory; Evictions counts those dropped by the per-segment
	// residency bound (Config.MaxResident) since startup.
	Resident  int    `json:"resident"`
	Evictions uint64 `json:"evictions"`
	// MaxVertexCongestion and MaxEdgeCongestion are the per-demand
	// congestion maxima across all graphs.
	MaxVertexCongestion int64 `json:"max_vertex_congestion"`
	MaxEdgeCongestion   int64 `json:"max_edge_congestion"`
	// FaultedRequests, MessagesLost, Retries, and DeliveredFraction
	// aggregate the chaos-mode accounting across all graphs.
	FaultedRequests   uint64  `json:"faulted_requests"`
	MessagesLost      uint64  `json:"messages_lost"`
	Retries           uint64  `json:"retries"`
	DeliveredFraction float64 `json:"delivered_fraction"`
	// PerGraph lists the per-graph counters in registration order.
	PerGraph []GraphStats `json:"per_graph"`
}

// Stats snapshots the global and per-graph counters (per-graph entries
// in registration order across all registry segments).
func (s *Service) Stats() Stats {
	var entries []*graphEntry
	resident := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.graphs {
			entries = append(entries, e)
		}
		resident += sh.lru.Len()
		sh.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	delivered, expected := s.pairs.load()
	st := Stats{
		Graphs:              len(entries),
		Resident:            resident,
		MaxVertexCongestion: s.maxVCong.Load(),
		MaxEdgeCongestion:   s.maxECong.Load(),
		DeliveredFraction:   deliveredFraction(delivered, expected),
	}
	for _, c := range s.counters(&st) {
		*c.field = c.v.Load()
	}
	for _, e := range entries {
		gd, ge := e.pairs.load()
		st.PerGraph = append(st.PerGraph, GraphStats{
			ID:                  e.id,
			N:                   e.g.N(),
			M:                   e.g.M(),
			Requests:            e.requests.Load(),
			Rounds:              e.rounds.Load(),
			CacheHits:           e.cacheHits.Load(),
			Coalesced:           e.coalesced.Load(),
			PackComputes:        e.computes.Load(),
			StoreHits:           e.storeHits.Load(),
			MaxVertexCongestion: e.maxVCong.Load(),
			MaxEdgeCongestion:   e.maxECong.Load(),
			FaultedRequests:     e.faultedRequests.Load(),
			MessagesLost:        e.messagesLost.Load(),
			Retries:             e.retries.Load(),
			DeliveredFraction:   deliveredFraction(gd, ge),
		})
	}
	return st
}

// deliveredFraction reports delivered/expected, defaulting to 1 before
// any faulted demand has been served (nothing was expected, nothing was
// lost).
func deliveredFraction(delivered, expected uint64) float64 {
	if expected == 0 {
		return 1
	}
	return float64(delivered) / float64(expected)
}
