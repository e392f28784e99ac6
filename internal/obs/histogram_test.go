package obs

import (
	"math"
	"testing"
)

// TestHistogramBucketEdges pins the le (inclusive upper bound) semantics:
// a value equal to a bound lands in that bound's bucket, one past it in the
// next, and anything beyond the last bound in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{0, 10, 11, 100, 101, 1000, 1001, 50000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // [<=10]=0,10  (10,100]=11,100  (100,1000]=101,1000  +Inf=1001,50000
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 0+10+11+100+101+1000+1001+50000 {
		t.Errorf("sum = %d", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{100, 200, 300, 400})
	// 100 uniform samples in (0,400]: quantiles should interpolate close to
	// the true values.
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 4)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-200) > 8 {
		t.Errorf("p50 = %v, want ≈200", p50)
	}
	if p99 := h.Quantile(0.99); math.Abs(p99-396) > 8 {
		t.Errorf("p99 = %v, want ≈396", p99)
	}
	// Values beyond the last finite bound clamp to it.
	h2 := NewHistogram([]int64{10})
	h2.Observe(99999)
	if q := h2.Quantile(0.5); q != 10 {
		t.Errorf("overflow quantile = %v, want clamp to 10", q)
	}
	// Empty histogram.
	if q := NewHistogram(nil).Quantile(0.9); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram([]int64{1000})
	h.Observe(100)
	h.Observe(300)
	if m := h.Mean(); m != 200 {
		t.Errorf("mean = %v, want 200", m)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1000, 4, 4)
	want := []int64{1000, 4000, 16000, 64000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestDefaultLatencyBucketsAscending(t *testing.T) {
	for i := 1; i < len(DefaultLatencyBuckets); i++ {
		if DefaultLatencyBuckets[i] <= DefaultLatencyBuckets[i-1] {
			t.Fatalf("DefaultLatencyBuckets not ascending at %d: %v", i, DefaultLatencyBuckets)
		}
	}
}

// TestHistogramObserveN: ObserveN(v, n) leaves exactly what n Observe(v)
// calls leave — buckets, sum, count and so the rendered series — and does
// nothing for n <= 0 or on a nil histogram.
func TestHistogramObserveN(t *testing.T) {
	one, many := NewHistogram([]int64{10, 100, 1000}), NewHistogram([]int64{10, 100, 1000})
	for _, o := range []struct {
		v int64
		n int
	}{{0, 3}, {10, 1}, {11, 16}, {1000, 2}, {1001, 5}, {7, 0}, {7, -2}} {
		for i := 0; i < o.n; i++ {
			one.Observe(o.v)
		}
		many.ObserveN(o.v, o.n)
	}
	got, want := many.BucketCounts(), one.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if many.Count() != one.Count() || many.Sum() != one.Sum() || many.Count() != 27 {
		t.Errorf("count %d sum %d, want %d and %d", many.Count(), many.Sum(), one.Count(), one.Sum())
	}
	var none *Histogram
	none.ObserveN(5, 5)
}
