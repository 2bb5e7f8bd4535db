package obs

import (
	"math/bits"
	"sync/atomic"
)

// Bucket layout: values below 1<<histSubBits get one bucket each, and
// every octave above that is split into histSub sub-buckets, giving a
// worst-case relative resolution of 2^-histSubBits (12.5%) across the
// full uint64 range. The mapping is a pure function of the value —
// no wall clock, no randomness, no state — so identical observation
// sequences always produce identical bucket contents, and replay tests
// over histogram snapshots stay byte-identical.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	// NumBuckets is the fixed bucket count: histSub exact low buckets
	// plus histSub sub-buckets for each of the 64-histSubBits octaves.
	NumBuckets = (64-histSubBits)*histSub + histSub
)

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	return (exp-histSubBits+1)*histSub + int((v>>(uint(exp)-histSubBits))&(histSub-1))
}

// BucketUpper returns the largest value the bucket holds (the
// Prometheus "le" boundary of the bucket).
func BucketUpper(b int) uint64 {
	if b < histSub {
		return uint64(b)
	}
	exp := uint(b/histSub) - 1 + histSubBits
	sub := uint64(b % histSub)
	lower := uint64(1)<<exp + sub<<(exp-histSubBits)
	return lower + 1<<(exp-histSubBits) - 1
}

// Histogram is a fixed-bucket log-scale distribution safe for
// concurrent use. Observe is allocation-free (atomic adds into a fixed
// array), so it can sit on serving hot paths; the registry exposes the
// bucket counts, count and sum as a Prometheus histogram.
//
// The zero value is ready to use, but a Histogram must not be copied
// after first use (it embeds atomics).
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one value. Negative values clamp to zero (durations
// from a monotonic clock cannot go backwards, but callers should not
// crash if arithmetic produces a stray negative).
func (h *Histogram) Observe(v int64) {
	u := uint64(0)
	if v > 0 {
		u = uint64(v)
	}
	h.counts[bucketOf(u)].Add(1)
	h.count.Add(1)
	h.sum.Add(u)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// BucketCount returns the observation count of one bucket.
func (h *Histogram) BucketCount(b int) uint64 { return h.counts[b].Load() }
