package obs

import (
	"strconv"
	"sync/atomic"
)

// DefaultLatencyBuckets are nanosecond upper bounds spanning 1 µs to ~4 s in
// roughly ×4 steps — wide enough for both the sub-microsecond queue hops and
// the millisecond-scale waits a saturated VRI queue produces.
var DefaultLatencyBuckets = []int64{
	1_000, 4_000, 16_000, 64_000, 250_000, 1_000_000,
	4_000_000, 16_000_000, 64_000_000, 250_000_000, 1_000_000_000, 4_000_000_000,
}

// ExpBuckets builds n upper bounds starting at start and multiplying by
// factor — the usual way to cover several decades with few buckets.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	out := make([]int64, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		out[i] = int64(v)
		v *= factor
	}
	return out
}

// Histogram is a fixed-bucket distribution over int64 observations
// (nanoseconds, queue depths). Observe is wait-free: it does three
// uncontended atomic adds and never allocates. Bucket bounds are inclusive
// upper edges (Prometheus "le" semantics); one implicit +Inf bucket catches
// the overflow.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	count  atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (nil selects DefaultLatencyBuckets). The bounds slice is not copied; do
// not mutate it afterwards.
func NewHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the value v — what n Observe(v) calls
// leave behind, for three atomic adds instead of 3n.
func (h *Histogram) ObserveN(v int64, n int) {
	if h == nil || n <= 0 {
		return
	}
	// Buckets are few (≲ 16): a linear scan beats binary search on branch
	// prediction and stays in one cache line.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(int64(n))
	h.sum.Add(v * int64(n))
	h.count.Add(int64(n))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation (0 with no samples).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Bounds returns the bucket upper edges.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// element is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// within the bucket that contains it — the same estimate Prometheus's
// histogram_quantile computes. Values in the +Inf bucket clamp to the
// largest finite bound. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(counts)-1 { // +Inf bucket
			return float64(h.bounds[len(h.bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(h.bounds[i-1])
		}
		hi := float64(h.bounds[i])
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// samples renders the histogram as Prometheus series: cumulative _bucket
// values with le labels, then _sum and _count.
func (h *Histogram) samples(base []Label) []Sample {
	counts := h.BucketCounts()
	out := make([]Sample, 0, len(counts)+2)
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatInt(h.bounds[i], 10)
		}
		labels := make([]Label, 0, len(base)+1)
		labels = append(labels, base...)
		labels = append(labels, Label{Key: "le", Value: le})
		out = append(out, Sample{Suffix: "_bucket", Labels: labels, Value: float64(cum)})
	}
	out = append(out,
		Sample{Suffix: "_sum", Labels: base, Value: float64(h.sum.Load())},
		Sample{Suffix: "_count", Labels: base, Value: float64(h.count.Load())},
	)
	return out
}
