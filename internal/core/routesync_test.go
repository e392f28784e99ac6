package core

import (
	"testing"
	"time"

	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/vr"
)

// TestBroadcastRouteUpdateDES: the monitor pushes a route change through
// the control queues and every VRI applies it before processing more data.
func TestBroadcastRouteUpdateDES(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before: frames to 172.16/12 drop (no route).
	for _, a := range v.VRIs() {
		f := frameFrom(t, "10.1.0.5", "172.16.0.1")
		a.Data.In.Enqueue(f)
		a.StepBatch(clock.now, 1, nil)
		if f.Out != vr.Drop {
			t.Fatalf("pre-update frame forwarded to %d", f.Out)
		}
	}
	// Broadcast the update; the DES consumer applies it via the handler.
	n := l.BroadcastRouteUpdate(v, vr.RouteUpdate{
		Prefix: packet.MustParseIP("172.16.0.0"), Bits: 12, OutIf: 1,
	})
	if n != 2 {
		t.Fatalf("BroadcastRouteUpdate addressed %d VRIs", n)
	}
	apply := RouteSyncHandler(nil)
	for _, a := range v.VRIs() {
		clock.advance(time.Microsecond)
		a := a
		if !a.StepBatch(clock.now, 1, func(ev *ControlEvent) { apply(v, a, ev) }).Did() {
			t.Fatal("VRI had no control event")
		}
	}
	// After: the same frames forward on if1, at every VRI.
	for _, a := range v.VRIs() {
		f := frameFrom(t, "10.1.0.5", "172.16.0.1")
		a.Data.In.Enqueue(f)
		clock.advance(time.Microsecond)
		a.StepBatch(clock.now, 1, nil)
		if f.Out != 1 {
			t.Errorf("VRI %d: post-update Out = %d, want 1", a.ID, f.Out)
		}
	}
}

// TestRouteSyncHandlerComposition: foreign payloads fall through to the
// wrapped handler; route updates do not.
func TestRouteSyncHandlerComposition(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	var fell []*ControlEvent
	h := RouteSyncHandler(func(_ *VR, _ *VRIAdapter, ev *ControlEvent) { fell = append(fell, ev) })
	h(v, a, &ControlEvent{Payload: []byte("user-protocol")})
	if len(fell) != 1 {
		t.Errorf("foreign payload not passed through: %d", len(fell))
	}
	h(v, a, &ControlEvent{Payload: vr.RouteUpdate{Prefix: packet.MustParseIP("192.168.0.0"), Bits: 16, OutIf: 1}.Marshal()})
	if len(fell) != 1 {
		t.Errorf("route update leaked to the user handler")
	}
	// The update landed in the engine.
	f := frameFrom(t, "10.1.0.5", "192.168.3.4")
	a.Data.In.Enqueue(f)
	a.StepBatch(clock.now, 1, nil)
	if f.Out != 1 {
		t.Errorf("handler did not apply the update: Out = %d", f.Out)
	}
}

// TestRouteSyncLive: the full live path — broadcast, relay, goroutine VRIs
// applying the change, traffic following the new route.
func TestRouteSyncLive(t *testing.T) {
	ca := netio.NewChanAdapter(1024)
	l, err := New(Config{Adapter: ca, Clock: WallClock})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	rt.ControlHandler = RouteSyncHandler(nil)
	v, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()

	newDst := "198.51.100.7"
	// Install a host route for a previously unroutable destination and
	// wait for both VRIs to apply it.
	l.BroadcastRouteUpdate(v, vr.RouteUpdate{
		Prefix: packet.MustParseIP(newDst), Bits: 32, OutIf: 1,
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		applied := 0
		for _, a := range v.VRIs() {
			if a.ControlHandled() > 0 {
				applied++
			}
		}
		if applied == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("VRIs never consumed the route update")
		}
		time.Sleep(time.Millisecond)
	}
	// Traffic to the new destination now forwards (through either VRI).
	for i := 0; i < 50; i++ {
		ca.RX <- frameFrom(t, "10.1.0.5", newDst)
	}
	got := 0
	timeout := time.After(10 * time.Second)
	for got < 50 {
		select {
		case f := <-ca.TX:
			if f.Out != 1 {
				t.Fatalf("frame forwarded to %d, want 1", f.Out)
			}
			got++
		case <-timeout:
			t.Fatalf("only %d/50 frames forwarded after route sync", got)
		}
	}
}
