package core

import (
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

// TestIdleWorkersReadNoClock: a worker checks its queues before it reads the
// clock, so the workers of an idle two-VRI VR read it not once. The monitor
// reads it once per idle pass, for the allocation pacing, so once Stop has
// joined everyone lvrm_monitor_idle_total accounts for every read.
func TestIdleWorkersReadNoClock(t *testing.T) {
	var reads atomic.Int64
	l, err := New(Config{
		Adapter: netio.NewChanAdapter(16), Obs: obs.NewRegistry(),
		Clock: func() int64 { reads.Add(1); return WallClock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.InitialVRIs = 2
	if _, err := l.AddVR(cfg); err != nil {
		t.Fatal(err)
	}
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
}

func TestWallClockMonotonicEnough(t *testing.T) {
	a := WallClock()
	time.Sleep(time.Millisecond)
	b := WallClock()
	if b <= a {
		t.Errorf("WallClock did not advance: %d -> %d", a, b)
	}
}
