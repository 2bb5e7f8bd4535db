// The batched demand path: N demands against one graph resolved with a
// single registry lookup and a single packing-cache checkout, executed
// concurrently under the service's existing semaphore with one
// Scheduler handle from the decomposition's free list per in-flight
// demand. A demand that fails validation
// or is cancelled becomes a structured entry in the result array — only
// request-level problems (unknown graph or kind, empty or oversized
// batch, a cached packing error) fail the batch as a whole. The
// streaming HTTP mode hands the batch a channel that receives one event
// per completed demand and then the terminal summary.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cast"
	"repro/internal/obs"
)

// Batch event types.
const (
	// EventDemand is one completed (or rejected) batch entry.
	EventDemand = "demand"
	// EventSummary terminates a batch's event stream.
	EventSummary = "summary"
)

// BatchEvent is one event of a streamed batch. Demand events carry the
// entry's index and its result or error; the summary event carries the
// batch totals and is always the last event of its stream.
type BatchEvent struct {
	// Seq is the event's 1-based position in its stream.
	Seq     uint64 `json:"seq"`
	BatchID uint64 `json:"batch_id"`
	Type    string `json:"type"`
	// Index is the demand's position in the batch (demand events only).
	Index    int           `json:"index"`
	Messages int           `json:"messages,omitempty"`
	Result   *cast.Result  `json:"result,omitempty"`
	Error    string        `json:"error,omitempty"`
	Summary  *BatchSummary `json:"summary,omitempty"`
}

// BatchDemand is one demand of a batch: a source list and the seed its
// tree assignment draws from (so a batch is replayable entry for entry).
type BatchDemand struct {
	Sources []int  `json:"sources"`
	Seed    uint64 `json:"seed"`
}

// BatchEntry is one demand's outcome. Exactly one of Result and Error
// is set.
type BatchEntry struct {
	Index  int          `json:"index"`
	Result *cast.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// BatchSummary aggregates a batch.
type BatchSummary struct {
	Demands   int `json:"demands"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	// Messages and Rounds sum over the succeeded entries only.
	Messages int    `json:"messages"`
	Rounds   uint64 `json:"rounds"`
}

// BatchResult is a batch's structured outcome: one entry per demand, in
// demand order, plus the summary the terminal stream event carries.
type BatchResult struct {
	BatchID uint64       `json:"batch_id"`
	Entries []BatchEntry `json:"entries"`
	Summary BatchSummary `json:"summary"`
}

// BroadcastBatch serves a batch of demands over the graph's cached
// decomposition. Individual demand failures (bad sources, oversized
// demand, cancellation mid-batch) are entries, not errors; the error
// return is reserved for request-level rejection. The packing cache is
// consulted exactly once for the whole batch.
func (s *Service) BroadcastBatch(ctx context.Context, id string, kind Kind, demands []BatchDemand) (BatchResult, error) {
	e, pe, err := s.prepareBatch(ctx, id, kind, demands)
	if err != nil {
		return BatchResult{}, err
	}
	return s.runBatch(ctx, e, pe, demands, s.batchSeq.Add(1), nil), nil
}

// prepareBatch performs the request-level half of a batch: registry
// lookup, kind/size validation, and the single packing-cache checkout.
// The streaming handler calls it separately so request errors surface
// as proper HTTP statuses before the first streamed byte. The registry
// and leader-side pack phases land on the context's trace, and the
// accepted batch size is observed once per batch.
func (s *Service) prepareBatch(ctx context.Context, id string, kind Kind, demands []BatchDemand) (*graphEntry, *packEntry, error) {
	tr := obs.FromContext(ctx)
	start := time.Now()
	e, ok := s.lookup(id)
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown graph %q", id)
	}
	if len(demands) == 0 {
		return nil, nil, fmt.Errorf("serve: empty batch")
	}
	if len(demands) > s.cfg.MaxBatch {
		return nil, nil, fmt.Errorf("serve: batch of %d demands exceeds limit %d", len(demands), s.cfg.MaxBatch)
	}
	s.observePhase(tr, phaseRegistry, start)
	s.batchHist.Observe(int64(len(demands)))
	pe, _, err := s.pack(tr, e, kind)
	if err != nil {
		return nil, nil, err
	}
	if pe.err != nil {
		return nil, nil, pe.err
	}
	return e, pe, nil
}

// runBatch executes a prepared batch: every valid entry runs under the
// service semaphore on a free-list handle and is recorded like a single
// broadcast, and the summary is computed from the entries. A non-nil
// events channel must have room for len(demands)+1 events: it receives
// one event per entry as the entry completes and then the summary, so
// no send ever blocks.
func (s *Service) runBatch(ctx context.Context, e *graphEntry, pe *packEntry, demands []BatchDemand, batchID uint64, events chan<- BatchEvent) BatchResult {
	emit := func(ev BatchEvent) {
		if events != nil {
			ev.BatchID = batchID
			events <- ev
		}
	}
	entries := make([]BatchEntry, len(demands))
	var wg sync.WaitGroup
	for i := range demands {
		entries[i].Index = i
		d := demands[i]
		if err := s.validateSources(e, d.Sources); err != nil {
			entries[i].Error = err.Error()
			emit(BatchEvent{Type: EventDemand, Index: i, Error: entries[i].Error})
			continue
		}
		wg.Add(1)
		go func(i int, d BatchDemand) {
			defer wg.Done()
			res, err := s.runDemand(ctx, pe, func(c *cast.Scheduler) (cast.Result, error) {
				return c.RunContext(ctx, cast.Demand{Sources: d.Sources}, d.Seed)
			})
			if err != nil {
				entries[i].Error = err.Error()
				emit(BatchEvent{Type: EventDemand, Index: i, Error: entries[i].Error})
				return
			}
			entries[i].Result = &res
			s.recordDemand(e, len(d.Sources), res)
			emit(BatchEvent{Type: EventDemand, Index: i, Messages: len(d.Sources), Result: &res})
		}(i, d)
	}
	wg.Wait()

	summary := BatchSummary{Demands: len(demands)}
	for i, en := range entries {
		if en.Result != nil {
			summary.Succeeded++
			summary.Messages += len(demands[i].Sources)
			summary.Rounds += uint64(en.Result.Rounds)
		}
	}
	summary.Failed = summary.Demands - summary.Succeeded
	emit(BatchEvent{Type: EventSummary, Summary: &summary})
	return BatchResult{BatchID: batchID, Entries: entries, Summary: summary}
}
