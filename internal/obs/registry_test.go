package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRegistryExposition checks the text format: sorted names, HELP/TYPE
// lines, counter/gauge/histogram shapes, and cumulative bucket counts.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests served.", func() uint64 { return 42 })
	r.Gauge("test_fraction", "A ratio.", func() float64 { return 0.25 })
	h := r.Histogram("test_latency_ns", "Latency.")
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := sb.String()

	for _, want := range []string{
		"# HELP test_requests_total Requests served.\n# TYPE test_requests_total counter\ntest_requests_total 42\n",
		"# TYPE test_fraction gauge\ntest_fraction 0.25\n",
		"# TYPE test_latency_ns histogram\n",
		"test_latency_ns_bucket{le=\"3\"} 2\n",
		"test_latency_ns_bucket{le=\"+Inf\"} 3\n",
		"test_latency_ns_sum 106\n",
		"test_latency_ns_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
	// Sorted: test_fraction before test_latency_ns before test_requests_total.
	if f, l, c := strings.Index(got, "test_fraction"), strings.Index(got, "test_latency_ns"),
		strings.Index(got, "test_requests_total"); !(f < l && l < c) {
		t.Fatalf("metrics not sorted by name:\n%s", got)
	}
	// The bucket for 100 must be cumulative (count 3, not 1).
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "test_latency_ns_bucket") && !strings.Contains(line, "+Inf") &&
			!strings.Contains(line, "le=\"3\"") {
			if !strings.HasSuffix(line, " 3") {
				t.Fatalf("histogram buckets not cumulative: %q", line)
			}
		}
	}
}

// TestCounterGroupReadOncePerScrape checks that a scrape reads a
// counter group with one call and writes every member from it: the
// read below returns a fresh value on every call, yet a total and its
// two parts still agree in each scrape.
func TestCounterGroupReadOncePerScrape(t *testing.T) {
	r := NewRegistry()
	calls := uint64(0)
	r.CounterGroup([]string{"test_a_total", "test_b_total", "test_sum_total"}, []string{"A.", "B.", "A+B."},
		func(vals []uint64) {
			calls++
			vals[0], vals[1] = calls, 10*calls
			vals[2] = vals[0] + vals[1]
		})
	for scrape := uint64(1); scrape <= 2; scrape++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if calls != scrape {
			t.Fatalf("scrape %d: group read %d times in all", scrape, calls)
		}
		for _, want := range []string{
			fmt.Sprintf("test_a_total %d\n", scrape),
			fmt.Sprintf("test_b_total %d\n", 10*scrape),
			fmt.Sprintf("test_sum_total %d\n", 11*scrape),
			"# HELP test_sum_total A+B.\n",
		} {
			if !strings.Contains(sb.String(), want) {
				t.Fatalf("scrape %d missing %q:\n%s", scrape, want, sb.String())
			}
		}
	}
}

// TestRegistryHandler checks the HTTP wrapper's content type.
func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "", func() uint64 { return 1 })
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1") {
		t.Fatalf("body missing metric:\n%s", rec.Body.String())
	}
}

// TestRegistryRejectsBadNames pins the fail-fast behavior for duplicate
// and malformed registrations.
func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "", func() uint64 { return 0 })
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { r.Gauge("ok_total", "", func() float64 { return 0 }) })
	mustPanic("leading digit", func() { r.Counter("9bad", "", func() uint64 { return 0 }) })
	mustPanic("bad rune", func() { r.Counter("bad-name", "", func() uint64 { return 0 }) })
	mustPanic("empty", func() { r.Counter("", "", func() uint64 { return 0 }) })
}
