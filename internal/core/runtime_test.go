package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
)

// startLiveLVRM builds an LVRM over a channel adapter, wraps it in a
// Runtime, and starts it. The caller feeds frames into ca.RX and reads
// forwarded frames from ca.TX.
func startLiveLVRM(t *testing.T, vris int) (*Runtime, *netio.ChanAdapter) {
	t.Helper()
	ca := netio.NewChanAdapter(4096)
	l, err := New(Config{Adapter: ca, Clock: WallClock})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	if _, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: vris,
	}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt, ca
}

func TestRuntimeForwardsLive(t *testing.T) {
	rt, ca := startLiveLVRM(t, 2)
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
	st := rt.LVRM().Stats()
	if st.Received != n || st.Sent != n {
		t.Errorf("Stats = %+v", st)
	}
	// Both VRIs shared the work under JSQ.
	vris := rt.LVRM().VRs()[0].VRIs()
	p0, p1 := vris[0].Processed(), vris[1].Processed()
	if p0+p1 != n {
		t.Errorf("processed sum = %d", p0+p1)
	}
}

func TestRuntimeControlRoundTrip(t *testing.T) {
	rt, _ := startLiveLVRM(t, 2)
	v := rt.LVRM().VRs()[0]
	vris := v.VRIs()

	gotPayload := make(chan string, 1)
	rt.ControlHandler = func(_ *VR, a *VRIAdapter, ev *ControlEvent) {
		if a.ID == vris[1].ID {
			select {
			case gotPayload <- string(ev.Payload):
			default:
			}
		}
	}
	if !vris[0].SendControl(&ControlEvent{DstVR: v.ID, DstVRI: vris[1].ID, Payload: []byte("route-sync")}) {
		t.Fatal("SendControl failed")
	}
	select {
	case p := <-gotPayload:
		if p != "route-sync" {
			t.Errorf("payload = %q", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("control event never delivered")
	}
}

func TestRuntimeStopIdempotent(t *testing.T) {
	rt, _ := startLiveLVRM(t, 1)
	rt.Stop()
	rt.Stop() // second Stop must not panic or deadlock
}

func TestRuntimeRestart(t *testing.T) {
	rt, ca := startLiveLVRM(t, 2)
	roundTrip := func(phase string) {
		t.Helper()
		ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
		select {
		case <-ca.TX:
		case <-time.After(10 * time.Second):
			t.Fatalf("no forwarding %s", phase)
		}
	}
	roundTrip("before restart")
	rt.Stop()
	rt.Start()
	roundTrip("after restart")
	// A second cycle proves the restart path does not consume one-shot
	// state (channels, waitgroups).
	rt.Stop()
	rt.Start()
	roundTrip("after second restart")
}

func TestRuntimeDoubleStartHarmless(t *testing.T) {
	rt, ca := startLiveLVRM(t, 1)
	rt.Start()
	ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
	select {
	case <-ca.TX:
	case <-time.After(10 * time.Second):
		t.Fatal("no forwarding after double Start")
	}
}

func TestSpareP(t *testing.T) {
	for _, c := range []struct {
		procs, workers int
		want           bool
	}{
		{1, 0, false}, {1, 2, false},
		{2, 0, true}, {2, 1, false}, {2, 2, false},
		{3, 1, true}, {3, 2, false},
		{4, 2, true}, {4, 3, false}, {4, 4, false},
	} {
		if got := spareP(c.procs, c.workers); got != c.want {
			t.Errorf("spareP(%d Ps, %d workers) = %v, want %v", c.procs, c.workers, got, c.want)
		}
	}
}

// idleRuntime builds a runtime, not yet started, over one VR of vris VRIs
// that gets no traffic, and sets GOMAXPROCS to procs until the test ends.
func idleRuntime(t *testing.T, procs, vris int, clock func() int64) (*Runtime, *LVRM) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	l, err := New(Config{Adapter: netio.NewChanAdapter(16), Obs: obs.NewRegistry(), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.InitialVRIs = vris
	if _, err := l.AddVR(cfg); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	t.Cleanup(rt.Stop)
	return rt, l
}

// TestMonitorIdleRule holds the monitor's idle passes to the rule, on counters
// alone. With no P to spare every idle pass gives the P up (the two-worker
// case is TestIdleWorkersReadNoClock). With one, the monitor polls and never
// yields until idleBudget has gone by on its clock, and then it parks, also
// when the budget runs out before idleYields passes.
func TestMonitorIdleRule(t *testing.T) {
	t.Run("one P yields", func(t *testing.T) {
		rt, l := idleRuntime(t, 1, 1, WallClock)
		rt.Start()
		time.Sleep(20 * time.Millisecond)
		rt.Stop()
		idle, yields := l.ins.monitorIdle.Value(), l.ins.monitorYields.Value()
		if idle == 0 || yields != idle {
			t.Errorf("%d idle passes, %d yields: want every idle pass to yield", idle, yields)
		}
	})
	t.Run("spare P polls then parks", func(t *testing.T) {
		var now atomic.Int64 // stands still until the test moves it
		rt, l := idleRuntime(t, 2, 1, now.Load)
		rt.Start()
		idle, yields := l.ins.monitorIdle.Value, l.ins.monitorYields.Value
		waitFor(t, 10*time.Second, func() bool { return idle() >= 100*idleClockEvery })
		if y := yields(); y != 0 {
			t.Fatalf("%d yields inside the idle budget, want 0", y)
		}
		now.Add(int64(idleBudget))
		waitFor(t, 10*time.Second, func() bool { return yields() > 0 })
		y0 := yields()
		i0 := idle() // after y0: a pass counts its idle before its yield
		began := time.Now()
		time.Sleep(20 * time.Millisecond)
		rt.Stop()
		took := time.Since(began)
		i1, y1 := idle(), yields()
		if i1-y1 > i0-y0 {
			t.Errorf("%d idle passes kept the P after the budget ran out", (i1-y1)-(i0-y0))
		}
		// A parked pass sleeps at least 50 µs; a yielding one takes well
		// under a microsecond.
		if n := i1 - i0; n > 1+int64(took/(50*time.Microsecond)) {
			t.Errorf("%d idle passes in %v after the budget: the monitor did not park", n, took)
		}
	})
	t.Run("a budget spent early parks at once", func(t *testing.T) {
		// Every read moves the clock on by the budget, so the stretch's
		// second read, 64 passes in, finds it spent: the monitor parks
		// there, not after idleYields yielding passes.
		var now atomic.Int64
		rt, l := idleRuntime(t, 2, 1, func() int64 { return now.Add(int64(idleBudget)) })
		began := time.Now()
		rt.Start()
		defer rt.Stop()
		const n = 100
		waitFor(t, 10*time.Second, func() bool { return l.ins.monitorYields.Value() >= n })
		// A yield is counted before its pass sleeps, so n parked passes
		// span at least n-1 sleeps of 50 µs; n yielding ones take microseconds.
		if took := time.Since(began); took < (n-1)*50*time.Microsecond {
			t.Errorf("%d yields in %v: the monitor yielded instead of parking", n, took)
		}
	})
}

// TestIdleWorkersReadNoClock: a worker checks its queues before it reads the
// clock, so the workers of an idle two-VRI VR read it not once. At
// GOMAXPROCS=2 the two workers leave the monitor no P to spare, so it yields
// on every idle pass and reads the clock once per pass, for the allocation
// pacing: once Stop has joined everyone lvrm_monitor_idle_total accounts for
// every read, and lvrm_monitor_yields_total equals it.
func TestIdleWorkersReadNoClock(t *testing.T) {
	var reads atomic.Int64
	rt, l := idleRuntime(t, 2, 2, func() int64 { reads.Add(1); return WallClock() })
	reads.Store(0)
	rt.Start()
	time.Sleep(20 * time.Millisecond)
	rt.Stop()
	idle := l.ins.monitorIdle.Value()
	if idle == 0 {
		t.Fatal("the monitor made no idle pass in 20 ms")
	}
	if workers := reads.Load() - idle; workers != 0 {
		t.Errorf("%d clock reads beside the monitor's %d idle passes, want 0", workers, idle)
	}
	if yields := l.ins.monitorYields.Value(); yields != idle {
		t.Errorf("%d yields in %d idle passes, want one per pass", yields, idle)
	}
}

// TestWallClockMonotonicEnough: WallClock advances, never steps back, and
// stays within a second of time.Now's Unix nanoseconds.
func TestWallClockMonotonicEnough(t *testing.T) {
	a := WallClock()
	time.Sleep(time.Millisecond)
	if b := WallClock(); b <= a {
		t.Errorf("WallClock did not advance: %d -> %d", a, b)
	}
	prev := WallClock()
	for i := 0; i < 100_000; i++ {
		now := WallClock()
		if now < prev {
			t.Fatalf("read %d stepped back: %d -> %d", i, prev, now)
		}
		prev = now
	}
	if d := time.Duration(WallClock() - time.Now().UnixNano()); d > time.Second || d < -time.Second {
		t.Errorf("WallClock is %v off time.Now", d)
	}
}
