package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.95) != 0 {
		t.Fatal("empty histogram must be zero")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	mean := h.Mean()
	if mean < 45*time.Millisecond || mean > 56*time.Millisecond {
		t.Fatalf("mean %v", mean)
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max %v", h.Max())
	}
	p95 := h.Quantile(0.95)
	// Bucket resolution is ~8%, so accept [85ms, 100ms].
	if p95 < 85*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 %v", p95)
	}
	p50 := h.Quantile(0.50)
	if p50 < 40*time.Millisecond || p50 > 56*time.Millisecond {
		t.Fatalf("p50 %v", p50)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	var h Histogram
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(r.Intn(1_000_000_000)))
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %v < previous (%v < %v)", q, v, prev)
		}
		prev = v
	}
}

// TestQuickBucketBounds: every duration lands in a bucket whose
// representative value is within the histogram's resolution of the sample.
func TestQuickBucketBounds(t *testing.T) {
	f := func(ns int64) bool {
		if ns < 0 {
			ns = -ns
		}
		idx := bucketIndex(ns)
		if idx < 0 || idx >= bucketCount {
			return false
		}
		v := bucketValue(idx)
		if ns < 1024 {
			return v <= 2048 // clamped region
		}
		// Lower bound ≤ sample < lower bound × (1 + 1/8) × 2 conservatively.
		return v <= ns && float64(ns) <= float64(v)*1.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("lost observations: %d", h.Count())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestSnap(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snap()
	if s.Count != 100 || s.Mean == 0 || s.P95 == 0 || s.P99 == 0 || s.Max == 0 {
		t.Fatalf("snap %+v", s)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(20*time.Millisecond, 5)
	ts.Add(3)
	time.Sleep(25 * time.Millisecond)
	ts.Add(7)
	b := ts.Buckets()
	if len(b) != 5 {
		t.Fatalf("bucket count %d", len(b))
	}
	var total int64
	for _, v := range b {
		total += v
	}
	if total != 10 {
		t.Fatalf("events lost: %d", total)
	}
	if b[0] != 3 {
		t.Fatalf("first bucket %d", b[0])
	}
	// Events past the series' end are dropped silently.
	time.Sleep(100 * time.Millisecond)
	ts.Add(99)
	var total2 int64
	for _, v := range ts.Buckets() {
		total2 += v
	}
	if total2 != 10 {
		t.Fatal("out-of-range event not dropped")
	}
}
