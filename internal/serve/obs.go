package serve

import (
	"time"

	"repro/internal/obs"
)

// Request phases instrumented on the serving path. Each phase gets one
// latency histogram and, when the request carries a trace, one span.
const (
	phaseRegistry  = iota // registry lookup + demand validation
	phaseStoreLoad        // snapshot store load + oracle verification
	phasePack             // packer run + scheduler construction
	phaseClone            // scheduler handle checkout from the free list
	phaseRun              // scheduler round loop
	phasePersist          // write-behind snapshot capture + save
	numPhases
)

// phaseNames are the span names and the histogram name stems.
var phaseNames = [numPhases]string{"registry", "store_load", "pack", "clone", "run", "persist"}

// PackProfile is the packer-internal instrumentation of one computed
// decomposition: which algorithm ran and what its inner loops did. It
// is attached to DecompInfo for the request that computed the packing
// and to that request's trace, so a slow pack is explainable from the
// traces endpoint alone. Spanning-kind profiles fill the MWU fields,
// dominating-kind profiles the layer-assignment fields.
type PackProfile struct {
	// Kind is the decomposition kind the profile describes; Trees the
	// packed tree count; MaxLoad the packer's load diagnostic (max_e z_e
	// for spanning, the most valid trees through one vertex for
	// dominating).
	Kind    Kind    `json:"kind"`
	Trees   int     `json:"trees"`
	MaxLoad float64 `json:"max_load"`

	// Spanning: MWU iterations, the Lemma F.1 stop tests split into
	// full-evaluation fallbacks (exact) and heaviest-first prefix early
	// exits (skipped), signature-index tree dedups, and the Section 5.2
	// subgraph sampling outcome.
	Iterations        int `json:"iterations,omitempty"`
	StopChecksExact   int `json:"stop_checks_exact,omitempty"`
	StopChecksSkipped int `json:"stop_checks_skipped,omitempty"`
	DedupHits         int `json:"dedup_hits,omitempty"`
	Subgraphs         int `json:"subgraphs,omitempty"`
	SubgraphsPacked   int `json:"subgraphs_packed,omitempty"`

	// Dominating: virtual layers, classes attempted vs valid, and the
	// bridging-graph matching outcome across all recursive layers.
	Layers       int `json:"layers,omitempty"`
	Classes      int `json:"classes,omitempty"`
	ValidClasses int `json:"valid_classes,omitempty"`
	Matched      int `json:"matched,omitempty"`
	Unmatched    int `json:"unmatched,omitempty"`
}

// traceRing bounds how many recent request traces stay resident for
// the traces endpoint.
const traceRing = 64

// initObs builds the service's metric registry and trace ring. Called
// once from New before the service is published, so the registrations
// need no locking.
func (s *Service) initObs() {
	s.traces = obs.NewRing(traceRing)
	r := obs.NewRegistry()
	s.metrics = r
	for _, c := range s.counters(new(Stats)) {
		r.Counter(c.name, c.help, c.v.Load)
	}
	// Derived like Stats.PackRequests. A scrape reads each line
	// separately, so the bucket lines add up to this one only at rest.
	r.Counter("repro_serve_pack_requests_total", "Decomposition requests, including cached.", func() uint64 {
		return s.packComputes.Load() + s.cacheHits.Load() + s.coalesced.Load() + s.storeHits.Load()
	})
	r.Counter("repro_serve_traces_total", "Request traces recorded.", s.traces.Total)

	r.Gauge("repro_serve_graphs", "Registered graphs.", func() float64 {
		return float64(s.graphCount())
	})
	r.Gauge("repro_serve_resident", "Decompositions currently resident.", func() float64 {
		return float64(s.residentCount())
	})
	r.Gauge("repro_serve_max_vertex_congestion", "Max per-demand vertex congestion seen.", func() float64 {
		return float64(s.maxVCong.Load())
	})
	r.Gauge("repro_serve_max_edge_congestion", "Max per-demand edge congestion seen.", func() float64 {
		return float64(s.maxECong.Load())
	})
	r.Gauge("repro_serve_delivered_fraction", "Achieved delivered fraction across faulted demands.", func() float64 {
		delivered, expected := s.pairs.load()
		return deliveredFraction(delivered, expected)
	})

	for ph := 0; ph < numPhases; ph++ {
		s.phaseHist[ph] = r.Histogram("repro_serve_phase_"+phaseNames[ph]+"_ns",
			"Latency of the "+phaseNames[ph]+" request phase in nanoseconds.")
	}
	s.msgsHist = r.Histogram("repro_serve_demand_messages", "Messages per served demand.")
	s.batchHist = r.Histogram("repro_serve_batch_demands", "Demands per accepted batch.")
}

// Metrics returns the service's metric registry (GET /metrics backs
// onto its Handler).
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// Traces returns the ring of recent request traces (GET /v1/traces
// backs onto its Snapshot).
func (s *Service) Traces() *obs.Ring { return s.traces }

// observePhase folds one completed phase, started at start, into the
// phase histogram and the request's trace (nil trace records nothing).
func (s *Service) observePhase(tr *obs.Trace, ph int, start time.Time) {
	s.phaseHist[ph].Observe(time.Since(start).Nanoseconds())
	tr.Record(phaseNames[ph], start)
}

// graphCount counts registered graphs across all registry segments.
func (s *Service) graphCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.graphs)
		sh.mu.Unlock()
	}
	return n
}

// residentCount counts resident decompositions across all segments.
func (s *Service) residentCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
