// Package obs is the stdlib-only observability layer: deterministic
// log-scale histograms, a Prometheus-text-format metric registry, and
// lightweight per-request trace spans carried through context.Context.
// It is the one place in the module where wall-clock reads are legal —
// measuring real durations is its entire job — and it is therefore
// explicitly carved out of the fingerprinted package set policed by
// internal/lint's nondetsource analyzer (see lint.DefaultFingerprinted).
//
// The three pieces compose but do not depend on each other:
//
//   - Histogram is a fixed-bucket log-scale distribution with
//     allocation-free recording (atomic bucket counters). The bucket
//     boundaries are a pure function of the value — no wall clock, no
//     randomness — so a replayed workload fills byte-identical buckets.
//   - Registry names counters, gauges, and histograms and writes them
//     in the Prometheus text exposition format. Packages register
//     closures over their own counters, so nothing needs to import the
//     serving layer to be scraped.
//   - Trace records named phase spans (start offset + duration) for one
//     request, travels via context.Context, and lands in a fixed-size
//     Ring whose snapshot backs a recent-traces endpoint.
//
// internal/serve wires all three through the request path (see its
// obs.go), and cmd/serve exposes GET /metrics and GET /v1/traces over
// them.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// idSeq makes NewID unique within a process.
var idSeq atomic.Uint64

// NewID returns a short request/trace id: a wall-clock prefix (so ids
// from different process runs rarely collide in logs) and a process-wide
// sequence suffix (so ids within a run never collide).
func NewID() string {
	return fmt.Sprintf("%08x-%05x", uint32(time.Now().UnixNano()>>12), idSeq.Add(1)&0xfffff)
}
