package core

import (
	"errors"
	"testing"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/vr"
)

// failEngineFactory fails after building n engines, to exercise spawn-path
// error handling.
func failEngineFactory(t testing.TB, allow int) vr.Factory {
	t.Helper()
	good := testEngineFactory(t)
	built := 0
	return func() (vr.Engine, error) {
		if built >= allow {
			return nil, errors.New("factory exhausted")
		}
		built++
		return good()
	}
}

func TestAddVRFactoryFailureReleasesCore(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	_, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: failEngineFactory(t, 1), InitialVRIs: 2, // second spawn fails
	})
	if err == nil {
		t.Fatal("AddVR succeeded despite failing factory")
	}
	// The cores bound before the failure must not leak... the first VRI's
	// core stays bound to the half-built VR, but the failed spawn's core
	// must have been released.
	free := l.Allocator().FreeCount()
	if free < 6 {
		t.Errorf("FreeCount = %d: the failed spawn leaked its core", free)
	}
}

func TestAllocateGrowFactoryFailureHolds(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: failEngineFactory(t, 1),
		Policy: alloc.NewFixed(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The policy wants 4 cores but every further engine build fails: the
	// allocation pass must hold at 1 without recording phantom events.
	events := l.Allocate(clock.now)
	if len(events) != 0 {
		t.Errorf("events = %+v despite factory failure", events)
	}
	if v.Cores() != 1 {
		t.Errorf("Cores = %d", v.Cores())
	}
	if l.Allocator().FreeCount() != 6 {
		t.Errorf("FreeCount = %d after failed grow", l.Allocator().FreeCount())
	}
}

func TestDispatchToFullQueueCountsDrop(t *testing.T) {
	clock := &fakeClock{}
	adapter := netio.NewQueueAdapter(netio.PFRing, 8192)
	l, err := New(Config{Adapter: adapter, Clock: clock.fn(), DataQueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	for i := 0; i < 10; i++ {
		clock.advance(10 * time.Microsecond)
		adapter.Inject(frameFrom(t, "10.1.0.5", "10.2.0.1"))
		l.RecvDispatchBatch(1)
	}
	if v.Dispatched() != 2 {
		t.Errorf("Dispatched = %d, want 2 (queue capacity)", v.Dispatched())
	}
	if v.InDrops() != 8 {
		t.Errorf("InDrops = %d, want 8", v.InDrops())
	}
	// The arrival estimate still reflects all 10 arrivals (the VR's load,
	// not its accepted throughput).
	if !v.arrival.Valid() {
		t.Error("arrival estimator did not observe dropped arrivals")
	}
}

func TestRelayToClosedAdapter(t *testing.T) {
	clock := &fakeClock{}
	adapter := netio.NewQueueAdapter(netio.PFRing, 64)
	l := newTestLVRM(t, clock, adapter)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	a.StepBatch(clock.now, 1, nil)
	adapter.Close()
	// The frame is consumed from the queue even though the send fails, so
	// RelayFrom must report progress — otherwise relay loops would stall
	// on a failing adapter with frames still queued. The loss is counted.
	if l.RelayFrom(a, 1) != 1 {
		t.Error("RelayFrom did not report the frame as consumed")
	}
	st := l.Stats()
	if st.Sent != 0 {
		t.Errorf("Sent = %d, want 0 (send failed)", st.Sent)
	}
	if st.SendErrors != 1 {
		t.Errorf("SendErrors = %d, want 1", st.SendErrors)
	}
}

func TestControlQueueOverflow(t *testing.T) {
	clock := &fakeClock{}
	adapter := netio.NewQueueAdapter(netio.PFRing, 64)
	l, err := New(Config{Adapter: adapter, Clock: clock.fn(), ControlQueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	sent := 0
	for i := 0; i < 10; i++ {
		if a.SendControl(&ControlEvent{DstVR: 0, DstVRI: a.ID}) {
			sent++
		}
	}
	if sent != 2 {
		t.Errorf("SendControl accepted %d events with capacity 2", sent)
	}
	// Relaying into a full inbound queue drops and counts.
	l2 := newTestLVRM(t, clock, adapter)
	v2, _ := l2.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	b := v2.VRIs()[0]
	for i := 0; i < 300; i++ { // inbound control cap defaults to 256
		b.SendControl(&ControlEvent{DstVR: 0, DstVRI: b.ID})
	}
	moved := l2.RelayControl()
	if moved != 256 {
		t.Errorf("relayed %d, want 256 (inbound capacity)", moved)
	}
}
