// Package metrics provides the measurement primitives the benchmark harness
// uses to reproduce the paper's evaluation: lock-free latency histograms
// (mean / percentiles) and per-interval time series (Fig 14's
// snapshot-impact plot).
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free, log-bucketed latency histogram. Buckets span
// 1 µs to ~17 s with ~8% resolution, which is ample for reproducing the
// paper's mean and 95th-percentile numbers.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
}

const (
	// 64 major powers of two, 8 minor subdivisions each.
	minorBits   = 3
	minorCount  = 1 << minorBits
	bucketCount = 64 * minorCount
)

// bucketIndex maps a duration in nanoseconds to its bucket.
func bucketIndex(ns int64) int {
	if ns < 1024 {
		ns = 1024 // clamp below ~1 µs
	}
	major := 63 - bits.LeadingZeros64(uint64(ns))
	minor := (ns >> (major - minorBits)) & (minorCount - 1)
	idx := int(major)<<minorBits | int(minor)
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

// bucketValue returns a representative latency for a bucket (its lower
// bound).
func bucketValue(idx int) int64 {
	major := idx >> minorBits
	minor := idx & (minorCount - 1)
	return (1 << major) | int64(minor)<<(major-minorBits)
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the maximum observed latency.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the q-th latency quantile (0 < q ≤ 1), e.g. 0.95 for the
// paper's 95th-percentile curves.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(bucketValue(i))
		}
	}
	return h.Max()
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Snapshot captures the histogram's headline numbers.
type Snapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snap returns the histogram's headline numbers.
func (h *Histogram) Snap() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// TimeSeries counts events into fixed-width time buckets from a start
// instant — used for the Fig 14 throughput-over-time plot.
type TimeSeries struct {
	start   time.Time
	width   time.Duration
	buckets []atomic.Int64
}

// NewTimeSeries creates a series of n buckets of the given width starting
// now.
func NewTimeSeries(width time.Duration, n int) *TimeSeries {
	return &TimeSeries{start: time.Now(), width: width, buckets: make([]atomic.Int64, n)}
}

// Add records an event at the current time.
func (ts *TimeSeries) Add(n int64) {
	idx := int(time.Since(ts.start) / ts.width)
	if idx >= 0 && idx < len(ts.buckets) {
		ts.buckets[idx].Add(n)
	}
}

// Buckets returns per-bucket event counts.
func (ts *TimeSeries) Buckets() []int64 {
	out := make([]int64, len(ts.buckets))
	for i := range ts.buckets {
		out[i] = ts.buckets[i].Load()
	}
	return out
}
