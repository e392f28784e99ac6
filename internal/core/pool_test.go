package core

import (
	"runtime/debug"
	"testing"
	"time"

	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/vr"
	"lvrm/internal/vr/click"
)

// pooledPipeline builds the full live data path over the channel adapter:
// pooled ingest -> RecvDispatchBatch -> VRI StepBatch -> RelayOut -> TX drain.
// Everything runs on the calling goroutine so testing.AllocsPerRun sees every
// allocation the steady state makes. Each step pushes burst frames through, so
// burst 16 fills one RecvBatch and exercises the multi-frame run.
func pooledPipeline(t testing.TB, p *pool.Pool, burst int) (l *LVRM, step func()) {
	t.Helper()
	clock := &fakeClock{}
	ca := netio.NewChanAdapter(64)
	l, err := New(Config{
		Adapter:   ca,
		Clock:     clock.fn(),
		FramePool: p,
		// The allocation pass runs once during warmup and then never again
		// inside the measured window.
		AllocPeriod: time.Hour,
		RecvBatch:   16, VRIBatch: 16, RelayBatch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16)); err != nil {
		t.Fatal(err)
	}
	proto := frameFrom(t, "10.1.0.1", "10.2.0.9")
	step = func() {
		for i := 0; i < burst; i++ {
			var f *packet.Frame
			if p != nil {
				f = p.Copy(proto)
			} else {
				f = proto.Clone()
			}
			ca.RX <- f
		}
		clock.advance(time.Microsecond)
		l.RecvDispatchBatch(16)
		for _, v := range l.VRs() {
			for _, a := range v.VRIs() {
				a.StepBatch(clock.now, 16, nil)
			}
		}
		l.RelayOut(0)
		for {
			select {
			case out := <-ca.TX:
				out.Release()
			default:
				return
			}
		}
	}
	return l, step
}

// TestPooledPipelineZeroAllocs is the tentpole's acceptance check: one frame
// through UDP-equivalent ingest, dispatch, VRI processing, and relay costs
// zero heap allocations at steady state when pooling is on — as a burst of
// one and as a full RecvBatch of 16.
func TestPooledPipelineZeroAllocs(t *testing.T) {
	for _, burst := range []int{1, 16} {
		p := pool.New()
		l, step := pooledPipeline(t, p, burst)
		// Warm up: grow scratch buffers, run the one allocation pass, seed the
		// pool's size classes.
		for i := 0; i < 64; i++ {
			step()
		}
		// GC off so a collection cannot evict the sync.Pool mid-measurement.
		restore := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(1000, step)
		debug.SetGCPercent(restore)
		if allocs != 0 && !raceEnabled {
			t.Errorf("burst %d: pooled ingest->dispatch->step->relay: %.2f allocs/step, want 0", burst, allocs)
		}
		st := l.Stats()
		if st.Sent == 0 || st.Received != st.Sent {
			t.Errorf("burst %d: pipeline did not forward cleanly: %+v", burst, st)
		}
		if ps := p.Stats(); ps.Outstanding != 0 {
			t.Errorf("burst %d: pool outstanding = %d after full drain, want 0", burst, ps.Outstanding)
		}
	}
}

// TestUnpooledPipelineUnchanged pins the opt-out: with FramePool nil the same
// path runs on heap frames (Release everywhere is a no-op) and forwards
// identically — the seed lifecycle.
func TestUnpooledPipelineUnchanged(t *testing.T) {
	l, step := pooledPipeline(t, nil, 1)
	for i := 0; i < 32; i++ {
		step()
	}
	st := l.Stats()
	if st.Sent != 32 || st.Received != 32 || st.SendErrors != 0 {
		t.Errorf("unpooled pipeline: %+v, want 32 received and sent", st)
	}
}

// TestDropPathsRelease checks the monitor-side drop paths recycle instead of
// leaking: an unclassified frame and a full-input-queue drop must both return
// their buffers to the pool.
func TestDropPathsRelease(t *testing.T) {
	clock := &fakeClock{}
	p := pool.New()
	l, err := New(Config{
		Adapter: netio.NewChanAdapter(4), Clock: clock.fn(),
		FramePool: p, DataQueueCap: 2, AllocPeriod: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16)); err != nil {
		t.Fatal(err)
	}

	// Unclassified: no VR claims 192.168/16 traffic.
	stray := p.Copy(frameFrom(t, "192.168.0.1", "10.2.0.9"))
	if dispatchOne(l, stray) {
		t.Fatal("stray frame classified")
	}
	if st := p.Stats(); st.Outstanding != 0 {
		t.Errorf("unclassified frame leaked: outstanding = %d", st.Outstanding)
	}

	// Queue-full: capacity 2, third dispatch must drop and recycle.
	proto := frameFrom(t, "10.1.0.1", "10.2.0.9")
	for i := 0; i < 2; i++ {
		if !dispatchOne(l, p.Copy(proto)) {
			t.Fatalf("dispatch %d rejected with queue space left", i)
		}
	}
	if dispatchOne(l, p.Copy(proto)) {
		t.Fatal("dispatch into a full queue succeeded")
	}
	if st := p.Stats(); st.Outstanding != 2 {
		t.Errorf("outstanding = %d, want 2 (the queued frames)", st.Outstanding)
	}
	if drops := l.VRs()[0].InDrops(); drops != 0+1 {
		t.Errorf("InDrops = %d, want 1", drops)
	}
}

// BenchmarkPooledDispatchRelay and BenchmarkHeapDispatchRelay are the
// before/after numbers for OBSERVABILITY.md; CI greps the pooled one's
// -benchmem output to enforce 0 allocs/op.
func BenchmarkPooledDispatchRelay(b *testing.B) {
	p := pool.New()
	_, step := pooledPipeline(b, p, 1)
	for i := 0; i < 64; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkPooledDispatchBurst is BenchmarkPooledDispatchRelay with a full
// RecvBatch of 16 frames per op, so the CI 0 allocs/op gate also covers the
// multi-frame run (staging, EnqueueBatch, per-run accounting).
func BenchmarkPooledDispatchBurst(b *testing.B) {
	p := pool.New()
	_, step := pooledPipeline(b, p, 16)
	for i := 0; i < 64; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkPooledInlinePass runs the live monitor's pass over a VRI the
// monitor consumes itself, with a ControlHandler installed: each op puts one
// frame and one control event in and passes until idle — receive, dispatch,
// the inline quantum (the event, then the frame on the next pass), relay. CI's
// 0 allocs/op gate holds the handler to being bound once per VRI, not per pass,
// and each engine to its per-frame path: the Basic engine and the Click
// element graph of the paper's Click VR.
func BenchmarkPooledInlinePass(b *testing.B) {
	engines := []struct {
		name    string
		factory func(testing.TB) vr.Factory
	}{
		{"basic", testEngineFactory},
		{"click", func(testing.TB) vr.Factory {
			return click.Factory(click.EngineConfig{Config: click.StandardForwarder("10.2.0.0/16", "10.1.0.0/16")})
		}},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			p := pool.New()
			ca := netio.NewChanAdapter(64)
			l, err := New(Config{
				Adapter: ca, Clock: (&fakeClock{}).fn(), FramePool: p, AllocPeriod: time.Hour,
				RecvBatch: 16, VRIBatch: 16, RelayBatch: 16,
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg := vrCfg(b, "vr1", "10.1.0.0", 16)
			cfg.Engine = e.factory(b)
			v, err := l.AddVR(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rt := NewRuntime(l)
			handled := 0
			rt.ControlHandler = func(*VR, *VRIAdapter, *ControlEvent) { handled++ }
			// What Start does for a VR's only VRI, without a monitor goroutine:
			// this goroutine runs the passes.
			a := v.VRIs()[0]
			onControl := rt.onControl(v, a)
			a.inline.Store(&onControl)
			proto, ev := frameFrom(b, "10.1.0.1", "10.2.0.9"), &ControlEvent{}
			op := func() {
				ca.RX <- p.Copy(proto)
				a.Control.In.Enqueue(ev)
				for rt.pass(true) {
				}
				(<-ca.TX).Release()
			}
			for i := 0; i < 64; i++ {
				op()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			if handled != 64+b.N {
				b.Fatalf("ControlHandler ran %d times for %d events", handled, 64+b.N)
			}
		})
	}
}

func BenchmarkHeapDispatchRelay(b *testing.B) {
	_, step := pooledPipeline(b, nil, 1)
	for i := 0; i < 64; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
