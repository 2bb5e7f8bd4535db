package obs

import (
	"sort"
	"testing"
)

// TestBucketMapping pins the bucket math: the mapping is monotone,
// continuous at the exact/log boundary, and BucketUpper is the true
// inclusive upper bound of every bucket.
func TestBucketMapping(t *testing.T) {
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d", got)
	}
	// Exact low range: one bucket per value.
	for v := uint64(0); v < 2*histSub; v++ {
		if got := bucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, v)
		}
		if up := BucketUpper(int(v)); up != v {
			t.Fatalf("BucketUpper(%d) = %d, want %d", v, up, v)
		}
	}
	// Monotone, and v always lands within [prev upper+1, upper].
	var values []uint64
	for shift := 0; shift < 64; shift++ {
		values = append(values, uint64(1)<<shift)
		if shift < 63 {
			values = append(values, uint64(1)<<shift+1, uint64(1)<<(shift+1)-1)
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	prev := -1
	for _, v := range values {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		if up := BucketUpper(b); v > up {
			t.Fatalf("value %d above its bucket %d upper %d", v, b, up)
		}
		if b > 0 {
			if lo := BucketUpper(b - 1); v <= lo {
				t.Fatalf("value %d at or below bucket %d lower bound %d", v, b, lo)
			}
		}
	}
	// The top bucket's upper bound covers the whole range.
	if up := BucketUpper(NumBuckets - 1); up != ^uint64(0) {
		t.Fatalf("top bucket upper = %d, want MaxUint64", up)
	}
	if b := bucketOf(^uint64(0)); b != NumBuckets-1 {
		t.Fatalf("bucketOf(MaxUint64) = %d, want %d", b, NumBuckets-1)
	}
	// Relative resolution: bucket width / lower bound <= 2^-histSubBits.
	for b := 2 * histSub; b < NumBuckets; b += 7 {
		lo, hi := BucketUpper(b-1)+1, BucketUpper(b)
		if width := hi - lo + 1; width<<histSubBits > lo+lo {
			// width <= lo/2^histSubBits·2 would be a miss; the exact bound
			// is width == lo >> (histSubBits) rounded — assert 12.5% here.
			if float64(width)/float64(lo) > 1.0/float64(histSub)+1e-9 {
				t.Fatalf("bucket %d [%d,%d] width %d exceeds %v relative resolution",
					b, lo, hi, width, 1.0/float64(histSub))
			}
		}
	}
}

// TestHistogramDeterministic pins replay determinism: two histograms
// fed the same sequence hold identical counts, sums and buckets (the
// bucket math has no hidden wall-clock or random state).
func TestHistogramDeterministic(t *testing.T) {
	var a, b Histogram
	seq := []int64{0, 1, 17, 17, 1023, 4096, 1 << 40, 3}
	for _, v := range seq {
		a.Observe(v)
	}
	for _, v := range seq {
		b.Observe(v)
	}
	if a.Count() != uint64(len(seq)) || a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("count/sum = %d/%d vs %d/%d", a.Count(), a.Sum(), b.Count(), b.Sum())
	}
	for i := 0; i < NumBuckets; i++ {
		if a.BucketCount(i) != b.BucketCount(i) {
			t.Fatalf("bucket %d diverged: %d vs %d", i, a.BucketCount(i), b.BucketCount(i))
		}
	}
	// Negative observations clamp to zero rather than corrupting buckets.
	zero := a.BucketCount(0)
	a.Observe(-5)
	if a.BucketCount(0) != zero+1 || a.Sum() != b.Sum() {
		t.Fatal("negative observation not clamped into bucket 0")
	}
}

// TestObserveZeroAlloc is the hot-path guarantee: recording into a
// histogram must not allocate (the serving path records several
// observations per demand).
func TestObserveZeroAlloc(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123456)
	})
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v per call, want 0", allocs)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (meaningful under -race) and checks nothing is lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if want := uint64(workers*per) * (workers*per - 1) / 2; h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
}
