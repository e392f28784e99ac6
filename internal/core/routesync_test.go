package core

import (
	"sync/atomic"
	"testing"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
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
	if _, err := rt.BroadcastRouteUpdate(v, vr.RouteUpdate{
		Prefix: packet.MustParseIP(newDst), Bits: 32, OutIf: 1,
	}); err != nil {
		t.Fatal(err)
	}
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

// pinger is an engine that has its VRI send a control event to VRI dst of the
// same VR for every frame it processes, then drops the frame.
type pinger struct {
	a    *VRIAdapter // set before the runtime starts
	dst  int
	sent atomic.Int64
}

func (p *pinger) Process(f *packet.Frame) (time.Duration, error) {
	if p.a.SendControl(&ControlEvent{DstVR: p.a.VRID, DstVRI: p.dst, Payload: []byte("ping")}) {
		p.sent.Add(1)
	}
	f.Out = vr.Drop
	return 0, nil
}

func (p *pinger) Name() string { return "pinger" }

// first is a balancer that sends every frame to the VR's first VRI.
type first struct{}

func (first) Pick([]balance.Target, *packet.Frame) int { return 0 }
func (first) Name() string                             { return "first" }

// TestBroadcastBesideControlRelay: VRI 0 of a two-VRI VR sends a control
// event to VRI 1 on every quantum (one frame each, at VRIBatch 1) while this
// goroutine broadcasts 1000 route updates through the runtime. The monitor
// relays VRI 0's events onto VRI 1's control queue, so a broadcast enqueued
// from here would be a second producer on that SPSC ring. Every event must be
// accounted for: relayed plus dropped equals sent, VRI 1 handles every relayed
// one, and every broadcast a VRI took is handled. Run under -race.
func TestBroadcastBesideControlRelay(t *testing.T) {
	ca := netio.NewChanAdapter(1024)
	l, err := New(Config{Adapter: ca, Clock: WallClock})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	var pings, routes [2]atomic.Int64
	rt.ControlHandler = func(_ *VR, a *VRIAdapter, ev *ControlEvent) {
		if _, err := vr.ParseRouteUpdate(ev.Payload); err == nil {
			routes[a.ID].Add(1)
		} else {
			pings[a.ID].Add(1)
		}
	}
	v, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		InitialVRIs: 2, Balancer: first{},
		Engine: func() (vr.Engine, error) { return &pinger{dst: 1}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	vris := v.VRIs()
	for _, a := range vris {
		a.Engine.(*pinger).a = a
	}
	sender := vris[0].Engine.(*pinger)
	rt.Start()
	defer rt.Stop()

	p := pool.New()
	proto := frameFrom(t, "10.1.0.5", "10.2.0.1")
	stop, fed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(fed)
		for i := 0; ; i++ {
			f := p.Copy(proto)
			select {
			case ca.RX <- f:
			case <-stop:
				f.Release()
				return
			}
			// Paced, so that VRI 1 mostly keeps up and the monitor's passes
			// stay short: the race is between two producers, not overload.
			if i%8 == 7 {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return sender.sent.Load() > 0 })

	broadcast := int64(0)
	for i := 0; i < 1000; i++ {
		n, err := rt.BroadcastRouteUpdate(v, vr.RouteUpdate{
			Prefix: packet.IPv4(198, 51, 100, byte(i)), Bits: 32, OutIf: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		broadcast += int64(n)
	}
	close(stop)
	<-fed
	if !rt.StopWithin(30 * time.Second) {
		t.Fatal("runtime did not drain")
	}

	st := l.Stats()
	sent := sender.sent.Load()
	relayed := st.ControlRelayed - broadcast
	if relayed+st.ControlDropped != sent {
		t.Fatalf("VRI 0 sent %d events, monitor relayed %d and dropped %d", sent, relayed, st.ControlDropped)
	}
	if got := pings[1].Load(); got != relayed {
		t.Fatalf("VRI 1 handled %d of the %d events relayed to it", got, relayed)
	}
	if got := routes[0].Load() + routes[1].Load(); got != broadcast {
		t.Fatalf("VRIs handled %d of the %d route updates enqueued", got, broadcast)
	}
	if broadcast == 0 || relayed == 0 {
		t.Fatalf("vacuous: %d broadcast events, %d relayed", broadcast, relayed)
	}
	t.Logf("sent %d, relayed %d, dropped %d; broadcast events %d", sent, relayed, st.ControlDropped, broadcast)
}
