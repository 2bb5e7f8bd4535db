package serve

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ds"
	"repro/internal/graph"
)

// TestBroadcastBatch pins the batched path's core contract: per-demand
// entries in demand order with individual failures as entries (never
// request errors), results identical to the same demands served one by
// one, and exactly one pack-cache checkout for the whole batch.
func TestBroadcastBatch(t *testing.T) {
	g := testGraph()
	s := New(Config{PackSeed: 1, MaxConcurrent: 4})
	id := mustRegister(t, s, g)

	const n = 12
	demands := make([]BatchDemand, n)
	rng := ds.NewRand(3)
	for i := range demands {
		demands[i] = BatchDemand{
			Sources: castSources(g.N(), 4+i, rng),
			Seed:    uint64(100 + i),
		}
	}
	// Wedge two invalid demands into the middle: they must come back as
	// error entries without disturbing their neighbours.
	demands[3] = BatchDemand{Sources: nil, Seed: 1}
	demands[8] = BatchDemand{Sources: []int{g.N() + 5}, Seed: 1}

	res, err := s.BroadcastBatch(context.Background(), id, Dominating, demands)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchID == 0 {
		t.Fatal("batch id not assigned")
	}
	if len(res.Entries) != n {
		t.Fatalf("%d entries for %d demands", len(res.Entries), n)
	}
	if res.Summary.Demands != n || res.Summary.Succeeded != n-2 || res.Summary.Failed != 2 {
		t.Fatalf("summary miscounts: %+v", res.Summary)
	}

	// Entry-for-entry equivalence with the serial path on a fresh service
	// (same pack seed, same decomposition).
	ref := New(Config{PackSeed: 1})
	if _, err := ref.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	var wantRounds uint64
	var wantMsgs int
	for i, e := range res.Entries {
		if e.Index != i {
			t.Fatalf("entry %d mislabeled: %+v", i, e)
		}
		if i == 3 || i == 8 {
			if e.Error == "" || e.Result != nil {
				t.Fatalf("invalid demand %d not an error entry: %+v", i, e)
			}
			continue
		}
		if e.Error != "" || e.Result == nil {
			t.Fatalf("valid demand %d failed: %+v", i, e)
		}
		want, err := ref.Broadcast(id, Dominating, demands[i].Sources, demands[i].Seed)
		if err != nil {
			t.Fatal(err)
		}
		if *e.Result != want {
			t.Fatalf("demand %d diverged from serial path: %+v vs %+v", i, *e.Result, want)
		}
		wantRounds += uint64(want.Rounds)
		wantMsgs += len(demands[i].Sources)
	}
	if res.Summary.Rounds != wantRounds || res.Summary.Messages != wantMsgs {
		t.Fatalf("summary rounds/messages %d/%d, want %d/%d", res.Summary.Rounds, res.Summary.Messages, wantRounds, wantMsgs)
	}

	// The acceptance gate: one batch of N demands touches the pack cache
	// exactly once — PackRequests is 1, not N.
	st := s.Stats()
	if st.PackRequests != 1 || st.PackComputes != 1 {
		t.Fatalf("batch made %d pack requests / %d computes, want 1/1", st.PackRequests, st.PackComputes)
	}
	// And the amortized stats fold matches the per-demand path's totals.
	if st.Requests != n-2 || st.Messages != uint64(wantMsgs) || st.Rounds != wantRounds {
		t.Fatalf("amortized stats wrong: requests=%d messages=%d rounds=%d, want %d/%d/%d",
			st.Requests, st.Messages, st.Rounds, n-2, wantMsgs, wantRounds)
	}
	rst := ref.Stats()
	if st.MaxVertexCongestion != rst.MaxVertexCongestion || st.MaxEdgeCongestion != rst.MaxEdgeCongestion {
		t.Fatalf("congestion maxima diverge from serial path: %+v vs %+v", st, rst)
	}

	// A second identical batch replays entry for entry and gets a fresh id.
	res2, err := s.BroadcastBatch(context.Background(), id, Dominating, demands)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BatchID == res.BatchID {
		t.Fatal("batch ids not unique")
	}
	for i := range res.Entries {
		a, b := res.Entries[i], res2.Entries[i]
		if a.Error != b.Error || (a.Result == nil) != (b.Result == nil) {
			t.Fatalf("replayed entry %d diverged: %+v vs %+v", i, a, b)
		}
		if a.Result != nil && *a.Result != *b.Result {
			t.Fatalf("replayed entry %d result diverged: %+v vs %+v", i, *a.Result, *b.Result)
		}
	}
}

// castSources draws k distinct-ish sources for a batch demand.
func castSources(n, k int, rng interface{ IntN(int) int }) []int {
	srcs := make([]int, k)
	for i := range srcs {
		srcs[i] = rng.IntN(n)
	}
	return srcs
}

// TestBroadcastBatchRequestErrors pins what fails the whole batch versus
// what becomes an entry: unknown graph, unknown kind, empty batch,
// oversized batch, and a cached packing error are request-level; nothing
// else is.
func TestBroadcastBatchRequestErrors(t *testing.T) {
	s := New(Config{PackSeed: 1, MaxBatch: 4})
	id := mustRegister(t, s, testGraph())
	ctx := context.Background()
	one := []BatchDemand{{Sources: []int{0}, Seed: 1}}

	if _, err := s.BroadcastBatch(ctx, "nope", Dominating, one); err == nil || !strings.Contains(err.Error(), "unknown graph") {
		t.Fatalf("unknown graph: %v", err)
	}
	if _, err := s.BroadcastBatch(ctx, id, Kind("steiner"), one); err == nil || !strings.Contains(err.Error(), "unknown decomposition kind") {
		t.Fatalf("unknown kind: %v", err)
	}
	if _, err := s.BroadcastBatch(ctx, id, Dominating, nil); err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("empty batch: %v", err)
	}
	big := make([]BatchDemand, 5)
	for i := range big {
		big[i] = one[0]
	}
	if _, err := s.BroadcastBatch(ctx, id, Dominating, big); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized batch: %v", err)
	}
	if st := s.Stats(); st.Requests != 0 {
		t.Fatalf("rejected batches counted demands: %+v", st)
	}

	// A cached packing error rejects the batch (no per-entry half-service).
	bad := mustRegister(t, s, graph.FromEdgeList(4, [][2]int{{0, 1}, {2, 3}}))
	if _, err := s.BroadcastBatch(ctx, bad, Spanning, one); err == nil {
		t.Fatal("batch over failed packing accepted")
	}
}

// TestBroadcastBatchEvents pins the event protocol the streaming handler
// relies on: with no reader, a channel of len(demands)+1 takes one
// demand event per entry (valid or not) and then exactly one terminal
// summary matching the returned batch result.
func TestBroadcastBatchEvents(t *testing.T) {
	s := New(Config{PackSeed: 1, MaxConcurrent: 2})
	id := mustRegister(t, s, testGraph())
	demands := []BatchDemand{
		{Sources: []int{0, 1, 2}, Seed: 5},
		{Sources: nil, Seed: 0}, // error entry, still an event
		{Sources: []int{3, 4}, Seed: 6},
	}
	ctx := context.Background()
	e, pe, err := s.prepareBatch(ctx, id, Dominating, demands)
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan BatchEvent, len(demands)+1)
	res := s.runBatch(ctx, e, pe, demands, 7, events)
	if len(events) != len(demands)+1 {
		t.Fatalf("%d events for %d demands", len(events), len(demands))
	}
	seen := make(map[int]bool)
	for range demands {
		ev := <-events
		if ev.BatchID != 7 || ev.Type != EventDemand || seen[ev.Index] {
			t.Fatalf("wrong or duplicate demand event: %+v", ev)
		}
		seen[ev.Index] = true
		en := res.Entries[ev.Index]
		if ev.Error != en.Error || (ev.Result == nil) != (en.Result == nil) || (ev.Result != nil && *ev.Result != *en.Result) {
			t.Fatalf("event %+v does not match entry %+v", ev, en)
		}
	}
	if ev := <-events; ev.Type != EventSummary || *ev.Summary != res.Summary {
		t.Fatalf("terminal event %+v, want summary %+v", ev, res.Summary)
	}
}
