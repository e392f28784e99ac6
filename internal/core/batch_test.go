package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/vr"
)

// failingAdapter accepts frames on Recv like a queue adapter but fails every
// Send, modeling a dead transmit path while capture still works.
type failingAdapter struct {
	inner *netio.QueueAdapter
}

func (f *failingAdapter) Recv() (*packet.Frame, bool) { return f.inner.Recv() }
func (f *failingAdapter) Send(*packet.Frame) error    { return errors.New("nic transmit dead") }
func (f *failingAdapter) Name() string                { return "failing" }
func (f *failingAdapter) Close() error                { return f.inner.Close() }

func TestRelayCountsSendFailures(t *testing.T) {
	clock := &fakeClock{}
	fa := &failingAdapter{inner: netio.NewQueueAdapter(netio.PFRing, 64)}
	l, err := New(Config{Adapter: fa, Clock: clock.fn(), RelayBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	const n = 6
	for i := 0; i < n; i++ {
		clock.advance(10 * time.Microsecond)
		a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
		a.StepBatch(clock.now, 1, nil)
	}
	if got := l.RelayOut(0); got != 0 {
		t.Errorf("RelayOut reported %d successful sends on a dead adapter", got)
	}
	st := l.Stats()
	if st.Sent != 0 {
		t.Errorf("Sent = %d, want 0", st.Sent)
	}
	if st.SendErrors != n {
		t.Errorf("SendErrors = %d, want %d — lost frames must be counted, not silent", st.SendErrors, n)
	}
	if a.Data.Out.Len() != 0 {
		t.Errorf("outgoing queue still holds %d frames; relay must consume past send errors", a.Data.Out.Len())
	}
}

// TestStepBatchControlPriority: a quantum that finds control pending handles
// control only (up to max) and leaves the data for the next quantum.
func TestStepBatchControlPriority(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	for i := 0; i < 5; i++ {
		a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	}
	for i := 0; i < 3; i++ {
		a.Control.In.Enqueue(&ControlEvent{DstVR: v.ID, DstVRI: a.ID})
	}
	handled := 0
	onControl := func(*ControlEvent) { handled++ }
	res := a.StepBatch(clock.now, 8, onControl)
	if res.Control != 3 || res.Frames != 0 || res.OutBytes != 0 {
		t.Fatalf("first StepBatch = %+v, want 3 control events and no frames", res)
	}
	if handled != 3 {
		t.Errorf("onControl ran %d times, want 3", handled)
	}
	if res.Cost != 3*ControlHandleCost {
		t.Errorf("Cost = %v, want %v", res.Cost, 3*ControlHandleCost)
	}
	if a.Data.In.Len() != 5 || a.Processed() != 0 {
		t.Fatalf("control quantum consumed data: %d queued, %d processed", a.Data.In.Len(), a.Processed())
	}
	res = a.StepBatch(clock.now, 8, onControl)
	if res.Control != 0 || res.Frames != 5 || res.OutBytes <= 0 {
		t.Fatalf("second StepBatch = %+v, want the 5 frames", res)
	}
	if a.Data.Out.Len() != 5 {
		t.Errorf("outgoing queue = %d frames, want 5", a.Data.Out.Len())
	}

	// max caps control too: 5 pending at max 2 take three quanta, and data
	// queued meanwhile waits for all of them.
	for i := 0; i < 5; i++ {
		a.Control.In.Enqueue(&ControlEvent{DstVR: v.ID, DstVRI: a.ID})
	}
	a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	for i, want := range []StepBatchResult{
		{Control: 2, Cost: 2 * ControlHandleCost},
		{Control: 2, Cost: 2 * ControlHandleCost},
		{Control: 1, Cost: ControlHandleCost},
	} {
		if got := a.StepBatch(clock.now, 2, onControl); got != want {
			t.Fatalf("capped quantum %d = %+v, want %+v", i, got, want)
		}
	}
	if res := a.StepBatch(clock.now, 2, onControl); res.Control != 0 || res.Frames != 1 {
		t.Fatalf("quantum after control drained = %+v, want the data frame", res)
	}
}

// TestStepBatchRespectsMax verifies a batch never exceeds its budget and the
// remainder stays queued in order.
func TestStepBatchRespectsMax(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	for i := 0; i < 10; i++ {
		a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	}
	res := a.StepBatch(clock.now, 4, nil)
	if res.Frames != 4 {
		t.Fatalf("Frames = %d, want 4 (the batch budget)", res.Frames)
	}
	if a.Data.In.Len() != 6 {
		t.Errorf("incoming queue = %d, want 6 left", a.Data.In.Len())
	}
	if a.Processed() != 4 {
		t.Errorf("Processed = %d, want 4", a.Processed())
	}
}

// TestStepBatchServiceRate checks Section 3.6's rule in batch form: gaps
// between batches on a backed-up queue feed the estimate as per-frame gaps,
// and a batch that drains the queue breaks the busy period.
func TestStepBatchServiceRate(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]

	// Keep the queue backed up across batches: per-frame gap = 1ms/4.
	enqueue := func(n int) {
		for i := 0; i < n; i++ {
			a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
		}
	}
	enqueue(12)
	for i := 0; i < 3; i++ {
		a.StepBatch(clock.now, 4, nil)
		clock.advance(time.Millisecond)
	}
	if !a.SvcEst.Valid() {
		t.Fatal("service estimate invalid after backed-up batches")
	}
	got := a.SvcEst.Estimate()
	want := 4000.0 // 4 frames per millisecond
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("service rate = %.0f fps, want ≈%.0f (per-frame, not per-batch)", got, want)
	}

	// Draining the queue must break the estimate: light-load batches with
	// long idle gaps in between must not drag the rate toward the arrival
	// rate (the regression the scalar path already guards against).
	before := a.SvcEst.Estimate()
	for i := 0; i < 5; i++ {
		clock.advance(100 * time.Millisecond) // idle gap
		enqueue(2)
		a.StepBatch(clock.now, 4, nil) // drains the queue entirely
	}
	after := a.SvcEst.Estimate()
	if after < before*0.5 {
		t.Errorf("estimate collapsed from %.0f to %.0f fps: idle gaps leaked into the service rate", before, after)
	}
}

// TestRecvDispatchBatch drives the batched receive path over the queue
// adapter's native DequeueBatch and checks it matches per-frame semantics.
func TestRecvDispatchBatch(t *testing.T) {
	clock := &fakeClock{}
	adapter := netio.NewQueueAdapter(netio.PFRing, 256)
	l, err := New(Config{Adapter: adapter, Clock: clock.fn(), RecvBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	const n = 20
	for i := 0; i < n; i++ {
		adapter.Inject(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	}
	if got := l.RecvDispatchBatch(0); got != n {
		t.Fatalf("RecvDispatchBatch = %d, want %d", got, n)
	}
	if v.Dispatched() != n {
		t.Errorf("Dispatched = %d, want %d", v.Dispatched(), n)
	}
	st := l.Stats()
	if st.Received != n {
		t.Errorf("Received = %d, want %d", st.Received, n)
	}
	// A budget caps the burst.
	for i := 0; i < n; i++ {
		adapter.Inject(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	}
	if got := l.RecvDispatchBatch(5); got != 5 {
		t.Errorf("RecvDispatchBatch(budget 5) = %d", got)
	}
}

// TestRuntimeBatchedLive runs the full live runtime with batching on every
// stage — receive, VRI service, relay — and checks nothing is lost. The CI
// race run exercises this with -race, covering the batched SPSC ops under
// real concurrency.
func TestRuntimeBatchedLive(t *testing.T) {
	ca := netio.NewChanAdapter(4096)
	l, err := New(Config{
		Adapter: ca, Clock: WallClock,
		RecvBatch: 8, VRIBatch: 8, RelayBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	if _, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	const n = 2000
	go func() {
		for i := 0; i < n; i++ {
			ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
		}
	}()
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		select {
		case f := <-ca.TX:
			if f.Out != 1 {
				t.Fatalf("forwarded frame Out = %d", f.Out)
			}
			got++
		case <-deadline:
			t.Fatalf("only %d/%d frames forwarded before deadline", got, n)
		}
	}
	st := l.Stats()
	if st.Received != n || st.Sent != n {
		t.Errorf("Stats = %+v", st)
	}
}

// scalarOnly hides everything but vr.Engine, as a decorator outside this
// repository's reach does (benchmark/'s probes): StepBatch must then drive the
// engine frame by frame.
type scalarOnly struct{ vr.Engine }

// TestStepBatchEngineCapabilities: a quantum gives the same result — frames
// out in the same order with the same bytes, processed and engine-drop
// counters, cost, OutBytes, the dispatch-wait histogram — whether StepBatch
// hands it to a vr.BatchEngine whole or walks a plain vr.Engine through it.
func TestStepBatchEngineCapabilities(t *testing.T) {
	type result struct {
		res                 []StepBatchResult
		out                 [][]byte
		processed, engDrops int64
		waitCount, waitSum  int64
		waitBuckets         []int64
	}
	run := func(wrap bool) result {
		clock := &fakeClock{}
		l, err := New(Config{
			Adapter: netio.NewQueueAdapter(netio.PFRing, 64), Clock: clock.fn(),
			Obs: obs.NewRegistry(), DataQueueCap: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
		if wrap {
			inner := cfg.Engine
			cfg.Engine = func() (vr.Engine, error) {
				e, err := inner()
				return scalarOnly{e}, err
			}
		}
		v, err := l.AddVR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := v.VRIs()[0]
		if (a.batcher == nil) != wrap {
			t.Fatalf("wrapped %v, batch capability %v", wrap, a.batcher != nil)
		}
		var r result
		for q := 0; q < 6; q++ {
			// Three bursts per quantum, received at three different times: the
			// waits coalesce into three histogram updates, not one.
			for burst := 0; burst < 3; burst++ {
				clock.advance(time.Duration(1+q) * 700 * time.Nanosecond)
				for i := 0; i < 2+q; i++ {
					dst := "10.2.0.1"
					if (q+burst+i)%3 == 0 {
						dst = "10.9.0.1" // no route
					}
					f := frameFrom(t, "10.1.0.5", dst)
					f.Timestamp = clock.now
					a.Data.In.Enqueue(f)
				}
			}
			clock.advance(time.Microsecond)
			r.res = append(r.res, a.StepBatch(clock.now, 64, nil))
		}
		for f, ok := a.Data.Out.Dequeue(); ok; f, ok = a.Data.Out.Dequeue() {
			r.out = append(r.out, f.Buf)
		}
		r.processed, r.engDrops = a.Processed(), a.EngineDrops()
		r.waitCount, r.waitSum, r.waitBuckets = v.waitHist.Count(), v.waitHist.Sum(), v.waitHist.BucketCounts()
		return r
	}
	batch, scalar := run(false), run(true)
	if !reflect.DeepEqual(batch, scalar) {
		t.Errorf("batch engine: %+v\nscalar engine: %+v", batch, scalar)
	}
	if batch.engDrops == 0 || batch.processed == batch.engDrops || batch.waitCount != batch.processed {
		t.Errorf("processed %d, engine drops %d, waits observed %d", batch.processed, batch.engDrops, batch.waitCount)
	}
}
