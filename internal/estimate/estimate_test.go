package estimate

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestEWMAFirstObservation(t *testing.T) {
	var e EWMA
	if e.Valid() {
		t.Error("zero EWMA claims valid")
	}
	e.Update(10)
	if !e.Valid() || e.Value() != 10 {
		t.Errorf("after first update: (%v,%v)", e.Value(), e.Valid())
	}
}

func TestEWMAUpdateRule(t *testing.T) {
	e := EWMA{Weight: 3}
	e.Update(8)
	// avg = (4 + 3*8)/4 = 7
	if got := e.Update(4); got != 7 {
		t.Errorf("Update = %v, want 7 (paper's rule (cur+w*avg)/(1+w))", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	var e EWMA
	for i := 0; i < 200; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Errorf("converged to %v", e.Value())
	}
}

func TestEWMAStaysWithinRangeProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var e EWMA
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			x := float64(v)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			e.Update(x)
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEWMAReset(t *testing.T) {
	var e EWMA
	e.Update(5)
	e.Reset()
	if e.Valid() || e.Value() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestArrivalRateConstantStream(t *testing.T) {
	a := NewArrivalRate(0)
	if a.Valid() || a.Estimate() != 0 {
		t.Error("fresh estimator not invalid/zero")
	}
	// 100 µs gaps -> 10000 fps.
	for i := 0; i < 100; i++ {
		a.Observe(int64(i) * 100_000)
	}
	if !a.Valid() {
		t.Fatal("not valid after 100 observations")
	}
	if got := a.Estimate(); math.Abs(got-10000) > 1 {
		t.Errorf("Estimate = %v, want ~10000", got)
	}
}

func TestArrivalRateTracksChange(t *testing.T) {
	a := NewArrivalRate(0)
	now := int64(0)
	for i := 0; i < 200; i++ { // 1000 fps
		now += 1_000_000
		a.Observe(now)
	}
	slow := a.Estimate()
	for i := 0; i < 200; i++ { // 10000 fps
		now += 100_000
		a.Observe(now)
	}
	fast := a.Estimate()
	if fast < slow*5 {
		t.Errorf("rate did not track up: %v -> %v", slow, fast)
	}
	if math.Abs(fast-10000) > 500 {
		t.Errorf("fast estimate = %v", fast)
	}
}

func TestArrivalRateIdleSince(t *testing.T) {
	a := NewArrivalRate(0)
	if !a.IdleSince(0, time.Second) {
		t.Error("no arrivals should count as idle")
	}
	a.Observe(1e9)
	if a.IdleSince(1e9+5e8, time.Second) {
		t.Error("idle after 0.5s with 1s threshold")
	}
	if !a.IdleSince(2.5e9, time.Second) {
		t.Error("not idle after 1.5s")
	}
}

func TestArrivalRateZeroGapIgnored(t *testing.T) {
	a := NewArrivalRate(0)
	a.Observe(100)
	a.Observe(100) // duplicate timestamp must not poison the average
	a.Observe(200)
	if got := a.Estimate(); math.Abs(got-1e7) > 1 {
		t.Errorf("Estimate = %v, want 1e7 (100ns gap)", got)
	}
}

// TestArrivalRateObserveN: ObserveN(now, 1) is Observe(now) bit for bit, and
// a stream received in bursts of n frames that share one timestamp yields the
// per-frame rate — where n plain Observe calls per burst would keep one gap
// and discard n-1, reporting the burst rate.
func TestArrivalRateObserveN(t *testing.T) {
	one, plain := NewArrivalRate(0), NewArrivalRate(0)
	now := int64(0)
	for i := 0; i < 500; i++ {
		now += int64(1+(i*7919)%4000) * 1000 // uneven gaps, 1..4000 µs
		one.ObserveN(now, 1)
		plain.Observe(now)
		if one.Estimate() != plain.Estimate() || one.Valid() != plain.Valid() {
			t.Fatalf("arrival %d: ObserveN(now,1) = %v, Observe(now) = %v", i, one.Estimate(), plain.Estimate())
		}
	}

	const n, burstGap = 16, 160 * time.Microsecond // 16 frames per 160 µs = 100 kfps
	burst, perFrame := NewArrivalRate(0), NewArrivalRate(0)
	for i := int64(1); i <= 200; i++ {
		burst.ObserveN(i*int64(burstGap), n)
		for k := 0; k < n; k++ {
			perFrame.Observe(i * int64(burstGap))
		}
	}
	if got := burst.Estimate(); math.Abs(got-100e3) > 1 {
		t.Errorf("bursts of %d: ObserveN estimates %.0f fps, want 100000", n, got)
	}
	if got := perFrame.Estimate(); math.Abs(got-100e3/n) > 1 {
		t.Errorf("bursts of %d: per-frame Observe estimates %.0f fps, expected the burst rate %.0f", n, got, 100e3/n)
	}
	burst.ObserveN(1<<40, 0) // n <= 0 records nothing
	if !burst.IdleSince(201*int64(burstGap), burstGap) {
		t.Error("ObserveN(now, 0) moved the last-arrival time")
	}
}

func TestQueueLength(t *testing.T) {
	q := NewQueueLength(0)
	for i := 0; i < 100; i++ {
		q.Observe(6)
	}
	if math.Abs(q.Estimate()-6) > 1e-9 {
		t.Errorf("Estimate = %v", q.Estimate())
	}
	q.Reset()
	if q.Valid() {
		t.Error("Reset did not clear")
	}
}

// TestQueueLengthMatchesEWMA: the estimator's one atomic word is the bare
// EWMA, to the bit, through a seeded mix of observations and resets, at the
// default weight and at another.
func TestQueueLengthMatchesEWMA(t *testing.T) {
	for _, weight := range []float64{0, 3} {
		q, ref := NewQueueLength(weight), EWMA{Weight: weight}
		rng := rand.New(rand.NewSource(11))
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(100); {
			case op < 98:
				length := rng.Intn(1024)
				q.Observe(length)
				ref.Update(float64(length))
			default:
				q.Reset()
				ref.Reset()
			}
			if got, want := q.Estimate(), ref.Value(); math.Float64bits(got) != math.Float64bits(want) || q.Valid() != ref.Valid() {
				t.Fatalf("weight %v, step %d: QueueLength (%v, valid %v), EWMA (%v, valid %v)",
					weight, step, got, q.Valid(), want, ref.Valid())
			}
		}
	}
}

// TestQueueLengthConcurrent: four goroutines observe occupancies in [lo, hi]
// while two read, and every read is an average of those samples — a value in
// [lo, hi], never a torn word or the no-sample marker. Run it under -race.
func TestQueueLengthConcurrent(t *testing.T) {
	const lo, hi = 10, 50
	q := NewQueueLength(0)
	q.Observe(lo) // readers never see the empty estimator's 0
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				q.Observe(lo + rng.Intn(hi-lo+1))
			}
		}(int64(w))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				if got := q.Estimate(); got < lo || got > hi || !q.Valid() {
					t.Errorf("read %v (valid %v), want a value in [%d, %d]", got, q.Valid(), lo, hi)
					return
				}
			}
		}()
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if got := q.Estimate(); got < lo || got > hi {
		t.Fatalf("final estimate %v outside [%d, %d]", got, lo, hi)
	}
}

func TestQueueLengthOrdering(t *testing.T) {
	// A consistently longer queue must estimate higher than a shorter one:
	// the property JSQ relies on.
	short, long := NewQueueLength(0), NewQueueLength(0)
	for i := 0; i < 50; i++ {
		short.Observe(2)
		long.Observe(20)
	}
	if short.Estimate() >= long.Estimate() {
		t.Errorf("short %v >= long %v", short.Estimate(), long.Estimate())
	}
}

func TestServiceRate(t *testing.T) {
	s := NewServiceRate(0)
	if s.Estimate() != 0 {
		t.Error("fresh service rate nonzero")
	}
	// One departure every 1/60 ms -> 60 Kfps.
	gap := int64(1e9) / 60000
	for i := 0; i < 300; i++ {
		s.Observe(int64(i) * gap)
	}
	if got := s.Estimate(); math.Abs(got-60000) > 100 {
		t.Errorf("Estimate = %v, want ~60000", got)
	}
	s.Reset()
	if s.Valid() {
		t.Error("Reset did not clear")
	}
}

func TestEstimatorInterfaces(t *testing.T) {
	// Compile-time assertions exist in the package; here check dynamic
	// behaviour through the interface.
	for _, e := range []Estimator{NewArrivalRate(0), NewQueueLength(0), NewServiceRate(0)} {
		if e.Valid() {
			t.Errorf("%T: fresh estimator valid", e)
		}
		e.Reset() // must not panic on fresh estimator
	}
}

func BenchmarkArrivalRateObserve(b *testing.B) {
	a := NewArrivalRate(0)
	for i := 0; i < b.N; i++ {
		a.Observe(int64(i) * 1000)
	}
}
