package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// metricKind discriminates the three exposition shapes.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered name: exactly one of group, gauge, and hist
// is set, matching kind. A counter is value idx of its group.
type metric struct {
	name  string
	help  string
	kind  metricKind
	group *counterGroup
	idx   int
	gauge func() float64
	hist  *Histogram
}

// counterGroup is counters whose values one call of read loads
// together, filling one value per counter.
type counterGroup struct {
	read func(vals []uint64)
	n    int
}

// Registry names counters, gauges, and histograms and writes them in
// the Prometheus text exposition format. Counters and gauges are
// closures over the owner's own state (an atomic load, a locked
// snapshot), so packages expose metrics without importing the serving
// layer — the registry pulls values at scrape time instead of being
// pushed into on hot paths. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex // guards metrics
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// register installs a metric, panicking on duplicate or invalid names —
// both are programming errors a test catches on first scrape.
func (r *Registry) register(m *metric) {
	if !validMetricName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[m.name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
	}
	r.metrics[m.name] = m
}

// Counter registers a monotonically nondecreasing metric read through
// fn at scrape time.
func (r *Registry) Counter(name, help string, fn func() uint64) {
	r.CounterGroup([]string{name}, []string{help}, func(vals []uint64) { vals[0] = fn() })
}

// CounterGroup registers the counters names, with help texts helps,
// whose values one call of read loads together: read fills vals[i] for
// names[i]. A scrape calls read once and writes every value from that
// call, so counters that must agree, such as a total and its parts,
// agree in every scrape even while they move.
func (r *Registry) CounterGroup(names, helps []string, read func(vals []uint64)) {
	if len(helps) != len(names) {
		panic(fmt.Sprintf("obs: %d help texts for %d counters", len(helps), len(names)))
	}
	grp := &counterGroup{read: read, n: len(names)}
	for i, name := range names {
		r.register(&metric{name: name, help: helps[i], kind: kindCounter, group: grp, idx: i})
	}
}

// Gauge registers a point-in-time metric read through fn at scrape
// time.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: fn})
}

// Histogram creates, registers, and returns a histogram exposed as the
// standard _bucket/_sum/_count triple.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// validMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// WritePrometheus writes every registered metric in the text exposition
// format, sorted by name so scrapes are diffable. Each counter group is
// read once per call. Histograms emit only their non-empty buckets
// (cumulative counts at explicit le boundaries are valid at any subset
// of thresholds) plus the +Inf bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ms = append(ms, r.metrics[name])
	}
	r.mu.Unlock()

	groupVals := make(map[*counterGroup][]uint64)
	for _, m := range ms {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			vals, ok := groupVals[m.group]
			if !ok {
				vals = make([]uint64, m.group.n)
				m.group.read(vals)
				groupVals[m.group] = vals
			}
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, vals[m.idx])
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n",
				m.name, m.name, strconv.FormatFloat(m.gauge(), 'g', -1, 64))
		case kindHistogram:
			err = writeHistogram(w, m.name, m.hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits one histogram's bucket/sum/count triple.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for b := 0; b < NumBuckets; b++ {
		c := h.BucketCount(b)
		if c == 0 {
			continue
		}
		cum += c
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, BucketUpper(b), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, cum, name, h.Sum(), name, h.Count())
	return err
}

// Handler returns an http.Handler serving the exposition text (the
// GET /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
