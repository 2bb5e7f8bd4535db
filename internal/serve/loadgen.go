// The load generator, in two traffic shapes:
//
//   - Closed loop (the default): K workers each issue M demands
//     back-to-back — a new demand is submitted the moment the previous
//     one returns — the standard model for saturating a
//     bounded-concurrency server and measuring its throughput ceiling.
//   - Open loop (ArrivalRate > 0): demands arrive on a deterministic
//     schedule with exponential interarrival gaps drawn from the seeded
//     PCG, independent of how fast the service drains them. This is the
//     shape real traffic has, and the one that exposes latency: below
//     saturation the percentiles track service time, above it queueing
//     delay grows without bound (or, with MaxPending set, admission
//     control starts rejecting arrivals).
//
// Everything randomized — demand streams, per-demand run seeds, the
// arrival schedule, the faulted subset, and per-plan kill seeds — is
// derived from (Seed, FaultSeed) through disjoint ds.SplitSeed domains,
// so no two families can collide and a load run is replayable demand
// for demand. Wall-clock fields (Elapsed, rates, latency percentiles,
// MaxPendingSeen) are the only parts of a report that vary across runs
// of the same config.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cast"
	"repro/internal/ds"
	"repro/internal/obs"
)

// Seed-family domains. Each family is derived by splitting the config
// seed by its domain first and by the member index second, so the
// demand-stream, run-seed, arrival, and fault families are pairwise
// disjoint for every (worker, demand) index — unlike additive schemes,
// where cfg.Seed+w*c and cfg.Seed+w*M+d overlap for some indices.
const (
	loadDomainDemands   = 1 // per-worker demand streams
	loadDomainRuns      = 2 // per-demand broadcast run seeds
	loadDomainArrivals  = 3 // open-loop interarrival gaps
	loadDomainFaultPick = 4 // which demands run faulted (from FaultSeed)
	loadDomainFaultPlan = 5 // per-plan kill-set seeds (from FaultSeed)
)

// loadSeed derives member index of the given seed family.
func loadSeed(base, domain, index uint64) uint64 {
	d, _ := ds.SplitSeed(base, domain)
	s, _ := ds.SplitSeed(d, index)
	return s
}

// loadRand opens the PCG stream for member index of the seed family.
func loadRand(base, domain, index uint64) *rand.Rand {
	d, _ := ds.SplitSeed(base, domain)
	return ds.SplitRand(d, index)
}

// LoadConfig describes one load run.
type LoadConfig struct {
	GraphID string
	Kind    Kind
	// Workers is K, the number of concurrent closed loops (default 1).
	// Ignored in open-loop mode, where concurrency follows arrivals.
	Workers int
	// Demands is M, demands issued per worker (default 1).
	Demands int
	// MsgsPerDemand sizes each demand (default n, the graph order).
	MsgsPerDemand int
	// Seed derives the demand streams, per-demand run seeds, and the
	// open-loop arrival schedule (disjoint SplitSeed domains).
	Seed uint64

	// ArrivalRate > 0 switches to open-loop mode: demands arrive at this
	// average rate (per second) with exponential interarrival gaps drawn
	// deterministically from Seed, regardless of completion speed.
	ArrivalRate float64
	// Arrivals is the open-loop total demand count (default Workers ×
	// Demands, so a config converts between modes without resizing).
	Arrivals int
	// MaxPending bounds in-flight open-loop demands: an arrival that
	// finds MaxPending demands still running is rejected (admission
	// control) instead of queued. 0 means unbounded — overload then
	// shows up as queueing delay in the latency percentiles.
	MaxPending int

	// Chaos mode: FaultRate in (0, 1] makes a seeded subset of demands
	// run under a fault plan (each demand is faulted independently with
	// this probability, drawn from FaultSeed — the same config replays
	// the same chaos run demand for demand). Zero disables chaos.
	FaultRate float64
	// FaultSeed derives both the faulted-demand subset and each plan's
	// kill-set seed (disjoint SplitSeed domains).
	FaultSeed uint64
	// FaultEdges and FaultVertices size each plan's random kill set.
	// When chaos is on and both are zero, one random edge is killed.
	FaultEdges    int
	FaultVertices int
	// FaultRound is each plan's failure round (default 1, after the
	// injection round).
	FaultRound int
	// FaultRetries is each plan's reroute budget (cast.FaultPlan
	// semantics: 0 means the default, negative disables retries).
	FaultRetries int
}

// LoadReport aggregates a load run. The non-wall-clock fields (counts,
// rounds, chaos accounting) are a pure function of the config; Elapsed,
// the rates, the latency percentiles, and MaxPendingSeen measure this
// particular execution.
type LoadReport struct {
	Mode    string `json:"mode"` // "closed" or "open"
	Workers int    `json:"workers"`
	// Demands is the run's target: Workers × Demands closed-loop,
	// Arrivals open-loop. Completed counts demands that actually ran to
	// completion — fewer than Demands when the run stopped on an error
	// or rejected arrivals at admission.
	Demands   int `json:"demands"`
	Completed int `json:"completed"`
	// Rejected counts open-loop arrivals dropped by admission control
	// (MaxPending).
	Rejected int `json:"rejected,omitempty"`
	// Messages counts messages disseminated by completed demands.
	Messages      int           `json:"messages"`
	Rounds        uint64        `json:"rounds"` // scheduler rounds, summed
	Elapsed       time.Duration `json:"elapsed"`
	DemandsPerSec float64       `json:"demands_per_sec"`
	// MsgsPerRound is the aggregate dissemination throughput: total
	// messages over total scheduler rounds.
	MsgsPerRound float64 `json:"msgs_per_round"`

	// Open-loop latency distribution over completed demands, measured
	// from the scheduled arrival to completion — so dispatcher lag and
	// semaphore queueing count alongside service time, and a saturated
	// run cannot hide its queueing delay behind a slow dispatcher
	// (coordinated omission). P50/P95/P99 are obs.Histogram estimates
	// (within 12.5%); the max is exact.
	ArrivalRate float64       `json:"arrival_rate,omitempty"`
	LatencyP50  time.Duration `json:"latency_p50,omitempty"`
	LatencyP95  time.Duration `json:"latency_p95,omitempty"`
	LatencyP99  time.Duration `json:"latency_p99,omitempty"`
	LatencyMax  time.Duration `json:"latency_max,omitempty"`
	// MaxPendingSeen is the peak number of concurrently in-flight
	// demands (open loop) — the overload signal when MaxPending is 0.
	MaxPendingSeen int `json:"max_pending_seen,omitempty"`

	// Chaos accounting, aggregated over the faulted demands only.
	FaultedDemands int `json:"faulted_demands"`
	MessagesLost   int `json:"messages_lost"`
	Retries        int `json:"retries"`
	// DeliveredFraction is pairs delivered over pairs expected across
	// all faulted demands (1 when none were faulted).
	DeliveredFraction float64 `json:"delivered_fraction"`

	// Phases is the per-phase latency breakdown across completed demands
	// (registry, clone, run, ...), folded from each demand's trace spans
	// into deterministic obs histograms. Wall-clock like the percentiles
	// above; phases with no observations are omitted.
	Phases []PhaseSummary `json:"phases,omitempty"`
}

// PhaseSummary is one serving phase's latency summary (nanoseconds) in
// a load report.
type PhaseSummary struct {
	Phase string `json:"phase"`
	obs.Summary
}

// loadPhases accumulates per-demand trace spans into one histogram per
// serving phase for the duration of a load run.
type loadPhases [numPhases]obs.Histogram

// observe runs one demand under a fresh trace and folds the recorded
// spans into the phase histograms.
func (p *loadPhases) observe(ctx context.Context, run func(context.Context) error) error {
	tr := obs.NewTrace("")
	err := run(obs.WithTrace(ctx, tr))
	for _, sp := range tr.Data().Spans {
		for ph, name := range phaseNames {
			if sp.Name == name {
				p[ph].Observe(sp.DurationNs)
				break
			}
		}
	}
	return err
}

// summaries condenses the non-empty phase histograms, in phase order.
func (p *loadPhases) summaries() []PhaseSummary {
	var out []PhaseSummary
	for ph := range p {
		if p[ph].Count() > 0 {
			out = append(out, PhaseSummary{Phase: phaseNames[ph], Summary: p[ph].Summarize()})
		}
	}
	return out
}

// loadJob is one precomputed demand of a load run. at is its scheduled
// arrival offset (open loop only).
type loadJob struct {
	dem  cast.Demand
	seed uint64
	plan *cast.FaultPlan
	at   time.Duration
}

// GenerateLoad runs the configured load shape against the service and
// reports aggregate throughput (and, open-loop, the latency
// distribution). The decomposition is forced into the cache before the
// clock starts, so the report measures steady-state serving, not the
// first packing. On a demand error the run stops (in-flight demands are
// cancelled, no new ones start) and the partial report is returned
// alongside the error, so the caller still sees how far the run got.
func GenerateLoad(s *Service, cfg LoadConfig) (LoadReport, error) {
	g, ok := s.Graph(cfg.GraphID)
	if !ok {
		return LoadReport{}, fmt.Errorf("serve: unknown graph %q", cfg.GraphID)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Demands <= 0 {
		cfg.Demands = 1
	}
	if cfg.MsgsPerDemand <= 0 {
		cfg.MsgsPerDemand = g.N()
	}
	if _, err := s.Decompose(cfg.GraphID, cfg.Kind); err != nil {
		return LoadReport{}, err
	}
	// Closed loop draws from one demand stream per worker, open loop
	// from a single stream; either way the jobs are derived before the
	// clock starts, so the run itself is pure serving.
	open := cfg.ArrivalRate > 0
	r := &loadRun{s: s, cfg: &cfg, rep: LoadReport{Mode: "closed", Workers: cfg.Workers, Demands: cfg.Workers * cfg.Demands}}
	streams := cfg.Workers
	if open {
		r.rep = LoadReport{Mode: "open", Demands: r.rep.Demands, ArrivalRate: cfg.ArrivalRate}
		if cfg.Arrivals > 0 {
			r.rep.Demands = cfg.Arrivals
		}
		streams = 1
	}
	jobs := loadJobs(&cfg, g.N(), streams, r.rep.Demands)

	var ctx context.Context
	ctx, r.cancel = context.WithCancel(context.Background())
	defer r.cancel()
	start := time.Now()
	rejected, peak := 0, 0
	if open {
		rejected, peak = r.openLoop(ctx, jobs, start)
	} else {
		r.closedLoop(ctx, jobs, cfg.Workers)
	}
	elapsed := time.Since(start)

	r.mu.Lock()
	rep, first := r.rep, r.first
	rep.DeliveredFraction = deliveredFraction(r.pairsD, r.pairsE)
	r.mu.Unlock()
	rep.Elapsed = elapsed
	rep.Messages = rep.Completed * cfg.MsgsPerDemand
	if secs := elapsed.Seconds(); secs > 0 {
		rep.DemandsPerSec = float64(rep.Completed) / secs
	}
	if rep.Rounds > 0 {
		rep.MsgsPerRound = float64(rep.Messages) / float64(rep.Rounds)
	}
	if open {
		rep.Rejected, rep.MaxPendingSeen = rejected, peak
		rep.LatencyP50 = time.Duration(r.latency.Quantile(0.50))
		rep.LatencyP95 = time.Duration(r.latency.Quantile(0.95))
		rep.LatencyP99 = time.Duration(r.latency.Quantile(0.99))
		rep.LatencyMax = time.Duration(r.latency.Max())
	}
	rep.Phases = r.phases.summaries()
	return rep, first
}

// loadJobs derives a run's jobs: job k*(total/streams)+d is demand d of
// stream k, with its own run seed and, in chaos mode, fault plan.
func loadJobs(cfg *LoadConfig, n, streams, total int) []loadJob {
	jobs := make([]loadJob, total)
	per := total / streams
	for k := 0; k < streams; k++ {
		rng := loadRand(cfg.Seed, loadDomainDemands, uint64(k))
		var pick *rand.Rand
		if cfg.FaultRate > 0 {
			pick = loadRand(cfg.FaultSeed, loadDomainFaultPick, uint64(k))
		}
		for i := k * per; i < (k+1)*per; i++ {
			jobs[i] = loadJob{
				dem:  cast.UniformDemand(n, cfg.MsgsPerDemand, rng),
				seed: loadSeed(cfg.Seed, loadDomainRuns, uint64(i)),
				plan: faultPlanFor(cfg, pick, uint64(i)),
			}
		}
	}
	if cfg.ArrivalRate > 0 {
		// Exponential gaps from the seeded PCG: two runs of one config
		// arrive identically.
		arng := loadRand(cfg.Seed, loadDomainArrivals, 0)
		var cum float64
		for i := range jobs {
			cum += arng.ExpFloat64() / cfg.ArrivalRate
			jobs[i].at = time.Duration(cum * float64(time.Second))
		}
	}
	return jobs
}

// faultPlanFor builds demand flat-index i's fault plan when the pick
// stream says the demand is faulted, nil otherwise.
func faultPlanFor(cfg *LoadConfig, pick *rand.Rand, i uint64) *cast.FaultPlan {
	if pick == nil || pick.Float64() >= cfg.FaultRate {
		return nil
	}
	edges, vertices := cfg.FaultEdges, cfg.FaultVertices
	if edges == 0 && vertices == 0 {
		edges = 1
	}
	round := cfg.FaultRound
	if round <= 0 {
		round = 1
	}
	return &cast.FaultPlan{
		Round:          round,
		RandomEdges:    edges,
		RandomVertices: vertices,
		Seed:           loadSeed(cfg.FaultSeed, loadDomainFaultPlan, i),
		MaxRetries:     cfg.FaultRetries,
	}
}

// loadRun is the state both loop shapes share: the report's counts,
// the first error (which cancels the run), and the latency and phase
// histograms.
type loadRun struct {
	s      *Service
	cfg    *LoadConfig
	cancel context.CancelFunc

	mu             sync.Mutex // guards rep, pairsD, pairsE, first
	rep            LoadReport
	pairsD, pairsE uint64
	first          error

	latency obs.Histogram // open loop: nanoseconds from arrival to completion
	phases  loadPhases
}

// do runs one job under a fresh trace and folds its outcome and its phase
// spans into the run. The first error cancels the run; a
// context.Canceled after it is just the stop signal echoing back through
// another demand, not a new error.
func (r *loadRun) do(ctx context.Context, j *loadJob) bool {
	var res cast.FaultResult
	err := r.phases.observe(ctx, func(ctx context.Context) (err error) {
		if j.plan != nil {
			res, err = r.s.BroadcastFaulted(ctx, r.cfg.GraphID, r.cfg.Kind, j.dem.Sources, j.seed, *j.plan)
		} else {
			res.Result, err = r.s.BroadcastContext(ctx, r.cfg.GraphID, r.cfg.Kind, j.dem.Sources, j.seed)
		}
		return err
	})
	if err != nil {
		r.mu.Lock()
		if r.first == nil && !errors.Is(err, context.Canceled) {
			r.first = err
		}
		r.mu.Unlock()
		r.cancel()
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.Completed++
	r.rep.Rounds += uint64(res.Rounds)
	if j.plan != nil {
		r.rep.FaultedDemands++
		r.rep.MessagesLost += res.MessagesLost
		r.rep.Retries += res.Retries
		r.pairsD += uint64(res.PairsDelivered)
		r.pairsE += uint64(res.PairsExpected)
	}
	return true
}

// closedLoop runs K workers, each issuing its own stream's jobs
// back-to-back until the jobs run out or the run is cancelled.
func (r *loadRun) closedLoop(ctx context.Context, jobs []loadJob, workers int) {
	per := len(jobs) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine []loadJob) {
			defer wg.Done()
			for i := range mine {
				if ctx.Err() != nil || !r.do(ctx, &mine[i]) {
					return
				}
			}
		}(jobs[w*per : (w+1)*per])
	}
	wg.Wait()
}

// openLoop is the arrival process: a dispatcher releases each job at its
// scheduled offset from start into its own goroutine (the service's
// MaxConcurrent bound turns excess arrivals into queueing delay), and an
// arrival that finds MaxPending jobs in flight is rejected. Latency is
// measured from the scheduled arrival, so dispatcher lag counts too.
func (r *loadRun) openLoop(ctx context.Context, jobs []loadJob, start time.Time) (rejected, maxPending int) {
	var (
		wg            sync.WaitGroup
		pending, peak atomic.Int64
	)
	for i := range jobs {
		j := &jobs[i]
		if wait := j.at - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		if r.cfg.MaxPending > 0 && int(pending.Load()) >= r.cfg.MaxPending {
			rejected++
			continue
		}
		maxInt64(&peak, pending.Add(1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pending.Add(-1)
			if r.do(ctx, j) {
				r.latency.Observe(time.Since(start.Add(j.at)).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	return rejected, int(peak.Load())
}
