// The HTTP front end over the Service: a small JSON API served by
// cmd/serve.
//
//	POST /v1/graphs                      {"n":..,"edges":[[u,v],..]}  -> {"id":..,"n":..,"m":..}
//	GET  /v1/graphs/{id}                                              -> {"id":..,"n":..,"m":..}
//	POST /v1/graphs/{id}/decomposition   {"kind":"dominating"|"spanning"} -> DecompInfo
//	POST /v1/graphs/{id}/broadcast       {"kind":..,"sources":[..],"seed":..} -> BroadcastResponse
//	POST /v1/graphs/{id}/broadcast/batch {"kind":..,"demands":[{"sources":[..],"seed":..},..]} -> BatchResponse
//	GET  /v1/stats                                                    -> Stats
//	GET  /v1/traces[?n=K]                                             -> TracesResponse
//	GET  /metrics                                                     -> Prometheus text exposition
//
// Every request is assigned a request id, echoed in the X-Request-Id
// response header, and carries an obs.Trace through its context; traces
// that recorded at least one serving phase land in the recent-traces
// ring behind GET /v1/traces.
//
// The batch endpoint also has a streaming mode (?stream=1): instead of
// one response after the whole batch, it emits newline-delimited JSON
// BatchEvents — one per completed demand, in completion order, then a
// terminal summary event — as they happen. With an Accept header of
// text/event-stream the same events are framed as SSE data lines. The
// batch writes into a channel with room for all of its events, so a
// slow client is buffered, never dropped, and never stalls the demands.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/cast"
	"repro/internal/obs"
)

// RegisterRequest is the POST /v1/graphs payload.
type RegisterRequest struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// GraphInfo answers graph registration and lookup.
type GraphInfo struct {
	ID string `json:"id"`
	N  int    `json:"n"`
	M  int    `json:"m"`
}

// DecomposeRequest is the POST /v1/graphs/{id}/decomposition payload.
type DecomposeRequest struct {
	Kind Kind `json:"kind"`
}

// BroadcastRequest is the POST /v1/graphs/{id}/broadcast payload. A
// non-nil Fault runs the demand under that fault plan (chaos mode) and
// the response carries the fault accounting.
type BroadcastRequest struct {
	Kind    Kind            `json:"kind"`
	Sources []int           `json:"sources"`
	Seed    uint64          `json:"seed"`
	Fault   *cast.FaultPlan `json:"fault,omitempty"`
}

// BatchRequest is the POST /v1/graphs/{id}/broadcast/batch payload:
// N demands served over one decomposition checkout.
type BatchRequest struct {
	Kind    Kind          `json:"kind"`
	Demands []BatchDemand `json:"demands"`
}

// BatchResponse is the non-streaming batch reply: per-demand entries in
// demand order (individual failures are entries, not request errors)
// plus the batch summary.
type BatchResponse struct {
	GraphID string       `json:"graph_id"`
	Kind    Kind         `json:"kind"`
	BatchID uint64       `json:"batch_id"`
	Summary BatchSummary `json:"summary"`
	Entries []BatchEntry `json:"entries"`
}

// FaultInfo is the fault accounting of a chaos-mode broadcast.
type FaultInfo struct {
	FailedEdges       int     `json:"failed_edges"`
	FailedVertices    int     `json:"failed_vertices"`
	TreesSurviving    int     `json:"trees_surviving"`
	PairsExpected     int     `json:"pairs_expected"`
	PairsDelivered    int     `json:"pairs_delivered"`
	DeliveredFraction float64 `json:"delivered_fraction"`
	MessagesDelivered int     `json:"messages_delivered"`
	MessagesLost      int     `json:"messages_lost"`
	Retries           int     `json:"retries"`
	RetryRounds       int     `json:"retry_rounds"`
}

// BroadcastResponse wraps a demand's scheduling result; Fault is set
// exactly when the request carried a fault plan.
type BroadcastResponse struct {
	GraphID  string      `json:"graph_id"`
	Kind     Kind        `json:"kind"`
	Messages int         `json:"messages"`
	Result   cast.Result `json:"result"`
	Fault    *FaultInfo  `json:"fault,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler mounts the JSON API over the service.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !readJSON(w, r, &req) {
			return
		}
		id, err := s.Register(req.N, req.Edges)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		g, _ := s.Graph(id)
		writeJSON(w, http.StatusOK, GraphInfo{ID: id, N: g.N(), M: g.M()})
	})
	mux.HandleFunc("GET /v1/graphs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		g, ok := s.Graph(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", id))
			return
		}
		writeJSON(w, http.StatusOK, GraphInfo{ID: id, N: g.N(), M: g.M()})
	})
	mux.HandleFunc("POST /v1/graphs/{id}/decomposition", func(w http.ResponseWriter, r *http.Request) {
		var req DecomposeRequest
		if !readJSON(w, r, &req) {
			return
		}
		id := r.PathValue("id")
		info, err := s.DecomposeContext(r.Context(), id, req.Kind)
		if err != nil {
			writeError(w, statusFor(s, id), err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v1/graphs/{id}/broadcast", func(w http.ResponseWriter, r *http.Request) {
		var req BroadcastRequest
		if !readJSON(w, r, &req) {
			return
		}
		id := r.PathValue("id")
		resp := BroadcastResponse{GraphID: id, Kind: req.Kind, Messages: len(req.Sources)}
		if req.Fault != nil {
			fres, err := s.BroadcastFaulted(r.Context(), id, req.Kind, req.Sources, req.Seed, *req.Fault)
			if err != nil {
				writeError(w, statusFor(s, id), err)
				return
			}
			resp.Result = fres.Result
			resp.Fault = &FaultInfo{
				FailedEdges:       fres.FailedEdges,
				FailedVertices:    fres.FailedVertices,
				TreesSurviving:    fres.TreesSurviving,
				PairsExpected:     fres.PairsExpected,
				PairsDelivered:    fres.PairsDelivered,
				DeliveredFraction: fres.DeliveredFraction,
				MessagesDelivered: fres.MessagesDelivered,
				MessagesLost:      fres.MessagesLost,
				Retries:           fres.Retries,
				RetryRounds:       fres.RetryRounds,
			}
		} else {
			res, err := s.BroadcastContext(r.Context(), id, req.Kind, req.Sources, req.Seed)
			if err != nil {
				writeError(w, statusFor(s, id), err)
				return
			}
			resp.Result = res
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/graphs/{id}/broadcast/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !readJSON(w, r, &req) {
			return
		}
		id := r.PathValue("id")
		if r.URL.Query().Get("stream") == "1" {
			streamBatch(s, w, r, id, req)
			return
		}
		res, err := s.BroadcastBatch(r.Context(), id, req.Kind, req.Demands)
		if err != nil {
			writeError(w, statusFor(s, id), err)
			return
		}
		writeJSON(w, http.StatusOK, BatchResponse{
			GraphID: id, Kind: req.Kind, BatchID: res.BatchID,
			Summary: res.Summary, Entries: res.Entries,
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if v := r.URL.Query().Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace limit %q", v))
				return
			}
			limit = n
		}
		writeJSON(w, http.StatusOK, TracesResponse{
			Total:  s.Traces().Total(),
			Traces: s.Traces().Snapshot(limit),
		})
	})
	mux.Handle("GET /metrics", s.Metrics().Handler())
	return withObs(s, mux)
}

// TracesResponse answers GET /v1/traces: the recent traces newest
// first (at most ?n=K of them) and the total ever recorded.
type TracesResponse struct {
	Total  uint64          `json:"total"`
	Traces []obs.TraceData `json:"traces"`
}

// withObs is the request-observability middleware: it assigns each
// request an id (echoed as X-Request-Id), threads a trace through the
// request context, and — when the handler recorded at least one serving
// phase — lands the trace in the recent-traces ring. Lookup-only
// endpoints (stats, metrics, the traces endpoint itself) record no
// spans and therefore never pollute the ring.
func withObs(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(obs.NewID())
		w.Header().Set("X-Request-Id", tr.ID())
		next.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), tr)))
		if tr.HasSpans() {
			s.Traces().Add(tr)
		}
	})
}

// streamBatch serves the batch's per-demand completion events as they
// happen. Request-level validation (and the single pack-cache checkout)
// runs before the first byte, so errors still get proper status codes;
// after that the response is a 200 event stream regardless of
// individual demand outcomes.
func streamBatch(s *Service, w http.ResponseWriter, r *http.Request, id string, req BatchRequest) {
	e, pe, err := s.prepareBatch(r.Context(), id, req.Kind, req.Demands)
	if err != nil {
		writeError(w, statusFor(s, id), err)
		return
	}
	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Room for every event the batch sends: the demands never wait on
	// this client, and nothing is dropped however slowly it reads.
	events := make(chan BatchEvent, len(req.Demands)+1)
	go s.runBatch(r.Context(), e, pe, req.Demands, s.batchSeq.Add(1), events)

	enc := json.NewEncoder(w)
	for seq := uint64(1); ; seq++ {
		select {
		case ev := <-events:
			ev.Seq = seq
			if sse {
				fmt.Fprintf(w, "data: ")
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "\n")
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Type == EventSummary {
				return
			}
		case <-r.Context().Done():
			// Client gone: the batch itself keeps winding down under its
			// cancelled request context; nothing left to stream.
			return
		}
	}
}

// statusFor distinguishes "graph does not exist" (404) from request
// errors on an existing graph (400).
func statusFor(s *Service, id string) int {
	if _, ok := s.Graph(id); !ok {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
