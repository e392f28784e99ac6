// Package estimate implements the load-estimation algorithms of Section 3.4
// (Figure 3.4): exponentially weighted moving averages over per-frame
// observations. Three estimators ship, matching the paper's variants:
//
//   - ArrivalRate: EWMA of the frame inter-arrival gap, inverted to a rate.
//     The VR monitor uses it to measure each VR's traffic load.
//   - QueueLength: EWMA of the incoming data queue occupancy, sampled when a
//     frame is forwarded to the VRI. The VRI adapter reports it to the VRI
//     monitor for join-the-shortest-queue balancing.
//   - ServiceRate: EWMA of the gap between consecutive FromLVRM calls,
//     inverted to a departure rate. The LVRM adapter reports it for the
//     dynamic-threshold core allocator.
//
// The concrete estimators are safe for concurrent use (the live runtime
// updates them from VRI goroutines while the monitor reads them); the bare
// EWMA is not. QueueLength, updated and read for every dispatched frame, is
// one atomic word with no lock; ArrivalRate and ServiceRate, updated once per
// received burst or VRI quantum, keep a mutex.
//
// All estimators follow the update rule in Figure 3.4:
//
//	avg <- (current + weight*avg) / (1 + weight)
package estimate

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Estimator is the common contract: feed observations, read a smoothed load
// value. The meaning of the value (rate in 1/s, queue occupancy) depends on
// the concrete estimator.
type Estimator interface {
	// Estimate returns the current smoothed load value.
	Estimate() float64
	// Valid reports whether enough observations have arrived for Estimate
	// to be meaningful.
	Valid() bool
	// Reset forgets all history.
	Reset()
}

// EWMA is the scalar average underlying every estimator. The zero value is
// invalid until the first Update; Weight defaults to DefaultWeight when 0.
type EWMA struct {
	// Weight is the history weight: larger values smooth more. The paper's
	// update is avg = (cur + w*avg)/(1+w), i.e. alpha = 1/(1+w).
	Weight float64
	avg    float64
	valid  bool
}

// DefaultWeight gives alpha = 1/8, a common smoothing factor for network
// rate estimation (same order as TCP's SRTT weight).
const DefaultWeight = 7

// Update folds a new observation into the average and returns it.
func (e *EWMA) Update(current float64) float64 {
	w := e.Weight
	if w <= 0 {
		w = DefaultWeight
	}
	if !e.valid {
		e.avg = current
		e.valid = true
		return e.avg
	}
	e.avg = (current + w*e.avg) / (1 + w)
	return e.avg
}

// Value returns the current average (0 if no observations).
func (e *EWMA) Value() float64 { return e.avg }

// Valid reports whether at least one observation has arrived.
func (e *EWMA) Valid() bool { return e.valid }

// Reset forgets all history.
func (e *EWMA) Reset() { e.avg, e.valid = 0, false }

// gapRate is the core ArrivalRate and ServiceRate share: the EWMA of the gap
// between consecutive event timestamps, inverted to a rate in events/second.
type gapRate struct {
	mu       sync.Mutex
	gap      EWMA
	prev     int64
	havePrev bool
}

// Observe records one event at virtual time now (ns); it is ObserveN(now, 1).
func (g *gapRate) Observe(now int64) { g.ObserveN(now, 1) }

// ObserveN records n events that share the timestamp now (ns) — a received
// burst stamped with one clock read, or a run of frames completing within one
// scheduling quantum. The gap since the previous observation is attributed
// evenly across the n events, so the estimate stays a per-frame rate: n plain
// Observe(now) calls would record one real gap and discard n-1 zero gaps,
// reporting the burst rate instead.
func (g *gapRate) ObserveN(now int64, n int) {
	if n <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.havePrev {
		gap := float64(now-g.prev) / float64(n)
		if gap > 0 {
			g.gap.Update(gap)
		}
	}
	g.prev = now
	g.havePrev = true
}

// Estimate returns the smoothed rate in events per second.
func (g *gapRate) Estimate() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.gap.Valid() || g.gap.Value() <= 0 {
		return 0
	}
	return 1e9 / g.gap.Value()
}

// Valid reports whether at least two events have been observed back to back.
func (g *gapRate) Valid() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gap.Valid()
}

// Reset forgets all history.
func (g *gapRate) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gap.Reset()
	g.havePrev = false
}

// ArrivalRate estimates a frame arrival rate (frames/second) from the EWMA
// of inter-arrival times, per the "arrival time" routine of Figure 3.4.
type ArrivalRate struct{ gapRate }

// NewArrivalRate returns an arrival-rate estimator with the given EWMA
// weight (0 selects DefaultWeight).
func NewArrivalRate(weight float64) *ArrivalRate {
	return &ArrivalRate{gapRate{gap: EWMA{Weight: weight}}}
}

// IdleSince reports whether no arrival has been observed for at least d at
// time now; used by the allocator to detect a VR going quiet.
func (a *ArrivalRate) IdleSince(now int64, d time.Duration) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return !a.havePrev || now-a.prev >= int64(d)
}

// QueueLength estimates the average occupancy of a VRI's incoming data
// queue, per the "queue length" routine of Figure 3.4.
//
// The average lives in one atomic word, the float64 bits of an EWMA's avg, or
// noSample while the EWMA is invalid. The dispatch path observes and reads it
// for every frame; a mutex there, never contended, spent 0.40 s in Unlock
// alone in a CPU profile of a 10 s bare-min benchmark run (2-vCPU KVM guest).
// An update replays EWMA.Update on a copy of the word and publishes it with a
// compare-and-swap, retrying when a concurrent update got there first, so
// every value is the EWMA's to the bit. LVRM updates it from the monitor
// goroutine only; the retry keeps the type safe for concurrent use like the
// package's other estimators.
type QueueLength struct {
	weight float64
	word   atomic.Uint64
}

// noSample is the word of an estimator with no sample yet: a NaN, which a
// queue occupancy average never is.
const noSample = 0x7ff8_0000_0000_0001

// NewQueueLength returns a queue-length estimator with the given EWMA weight
// (0 selects DefaultWeight).
func NewQueueLength(weight float64) *QueueLength {
	q := &QueueLength{weight: weight}
	q.word.Store(noSample)
	return q
}

// ewma returns the EWMA a word encodes.
func (q *QueueLength) ewma(word uint64) EWMA {
	if word == noSample {
		return EWMA{Weight: q.weight}
	}
	return EWMA{Weight: q.weight, avg: math.Float64frombits(word), valid: true}
}

// Observe records the instantaneous queue occupancy.
func (q *QueueLength) Observe(length int) {
	for {
		old := q.word.Load()
		e := q.ewma(old)
		e.Update(float64(length))
		if q.word.CompareAndSwap(old, math.Float64bits(e.avg)) {
			return
		}
	}
}

// Estimate returns the smoothed queue occupancy (0 before the first sample).
func (q *QueueLength) Estimate() float64 {
	e := q.ewma(q.word.Load())
	return e.Value()
}

// Valid reports whether any occupancy sample has arrived.
func (q *QueueLength) Valid() bool { return q.word.Load() != noSample }

// Reset forgets all history.
func (q *QueueLength) Reset() { q.word.Store(noSample) }

// ServiceRate estimates a VRI's service (departure) rate in frames/second
// from the gaps between consecutive service completions, as measured by the
// LVRM adapter between FromLVRM calls (Section 3.6).
type ServiceRate struct{ gapRate }

// NewServiceRate returns a service-rate estimator with the given EWMA weight
// (0 selects DefaultWeight).
func NewServiceRate(weight float64) *ServiceRate {
	return &ServiceRate{gapRate{gap: EWMA{Weight: weight}}}
}

// Break marks a service discontinuity: the next Observe will not form a gap
// with the previous one. The LVRM adapter calls it when the incoming queue
// drains, so the estimate reflects back-to-back service capacity rather than
// echoing the arrival rate under light load.
func (s *ServiceRate) Break() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.havePrev = false
}

var (
	_ Estimator = (*ArrivalRate)(nil)
	_ Estimator = (*QueueLength)(nil)
	_ Estimator = (*ServiceRate)(nil)
)
