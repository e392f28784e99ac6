package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/trace"
	"lvrm/internal/vr"
)

// fakeClock is a manually advanced nanosecond clock for driving the monitor
// deterministically in tests.
type fakeClock struct{ now int64 }

func (c *fakeClock) fn() func() int64        { return func() int64 { return c.now } }
func (c *fakeClock) advance(d time.Duration) { c.now += int64(d) }

func testEngineFactory(t testing.TB) vr.Factory {
	t.Helper()
	tbl, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n10.1.0.0/16 if0\n"))
	if err != nil {
		t.Fatal(err)
	}
	return vr.BasicFactory(vr.BasicConfig{Routes: tbl})
}

func newTestLVRM(t testing.TB, clock *fakeClock, adapter netio.Adapter) *LVRM {
	t.Helper()
	if adapter == nil {
		adapter = netio.NewQueueAdapter(netio.PFRing, 8192)
	}
	l, err := New(Config{Adapter: adapter, Clock: clock.fn()})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// dispatchOne stamps, classifies and dispatches f as a burst of one, as the
// monitor does a frame it received, and reports whether a VRI queue took it.
// The scratch lives on this stack, so the dispatch path's escape behaviour is
// what the 0-allocs gate sees.
func dispatchOne(l *LVRM, f *packet.Frame) bool {
	frames, scratch := [1]*packet.Frame{f}, [1]parsed{}
	return l.dispatchBurst(frames[:], scratch[:], l.cfg.Clock()) == 1
}

func vrCfg(t testing.TB, name string, subnet string, bits int) VRConfig {
	t.Helper()
	return VRConfig{
		Name:      name,
		SrcPrefix: packet.MustParseIP(subnet),
		SrcBits:   bits,
		Engine:    testEngineFactory(t),
	}
}

func frameFrom(t testing.TB, src, dst string) *packet.Frame {
	t.Helper()
	f, err := packet.BuildUDP(packet.UDPBuildOpts{
		Src: packet.MustParseIP(src), Dst: packet.MustParseIP(dst),
		SrcPort: 7, DstPort: 9, WireSize: packet.MinWireSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	clock := &fakeClock{}
	if _, err := New(Config{Clock: clock.fn()}); err == nil {
		t.Error("missing adapter accepted")
	}
	if _, err := New(Config{Adapter: netio.NewChanAdapter(1)}); err == nil {
		t.Error("missing clock accepted")
	}
	if _, err := New(Config{Adapter: netio.NewChanAdapter(1), Clock: clock.fn(), LVRMCore: 99}); err == nil {
		t.Error("bad LVRM core accepted")
	}
}

func TestAddVRDefaultsAndInitialVRI(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, err := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	if err != nil {
		t.Fatal(err)
	}
	if v.Cores() != 1 {
		t.Errorf("Cores = %d", v.Cores())
	}
	// The initial VRI occupies the first sibling core (core 1; LVRM is 0).
	if v.VRIs()[0].Core != 1 {
		t.Errorf("first VRI core = %d, want 1 (sibling-first)", v.VRIs()[0].Core)
	}
	if owner, ok := l.Allocator().OwnerOf(1); !ok || owner != "vr1/0" {
		t.Errorf("core 1 owner = (%q,%v)", owner, ok)
	}
	if _, err := l.AddVR(VRConfig{Name: "broken"}); err == nil {
		t.Error("VR without engine accepted")
	}
}

func TestClassifyBySourceSubnet(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v1, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	v2, _ := l.AddVR(vrCfg(t, "vr2", "10.3.0.0", 16))
	if v, ok := l.Classify(frameFrom(t, "10.1.0.5", "10.2.0.1")); !ok || v != v1 {
		t.Errorf("10.1.0.5 classified to %v", v)
	}
	if v, ok := l.Classify(frameFrom(t, "10.3.9.9", "10.2.0.1")); !ok || v != v2 {
		t.Errorf("10.3.9.9 classified to %v", v)
	}
	if _, ok := l.Classify(frameFrom(t, "192.0.2.1", "10.2.0.1")); ok {
		t.Error("unowned source classified")
	}
	// Non-IP frames are never classified by the subnet rule.
	arp := &packet.Frame{Buf: make([]byte, 60)}
	arp.Buf[12], arp.Buf[13] = 0x08, 0x06
	if _, ok := l.Classify(arp); ok {
		t.Error("ARP classified")
	}
}

// TestAddVRSrcBitsRange: a prefix length outside 0..32 used to wrap the mask
// shift to a match-everything VR that starved every VR after it.
func TestAddVRSrcBitsRange(t *testing.T) {
	for _, c := range []struct {
		bits    int
		ok      bool
		claimed bool // does the VR claim a frame from 10.3.9.9, outside 10.1.0.0/bits?
	}{
		{-1, false, false},
		{0, true, true},
		{24, true, false},
		{32, true, false},
		{33, false, false},
	} {
		l := newTestLVRM(t, &fakeClock{}, nil)
		v, err := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", c.bits))
		if (err == nil) != c.ok {
			t.Errorf("SrcBits %d: AddVR err = %v, want ok=%v", c.bits, err, c.ok)
		}
		if err != nil {
			if len(l.VRs()) != 0 {
				t.Errorf("SrcBits %d: rejected VR was registered", c.bits)
			}
			continue
		}
		if got, ok := l.Classify(frameFrom(t, "10.1.0.0", "10.2.0.1")); !ok || got != v {
			t.Errorf("SrcBits %d: own prefix not classified", c.bits)
		}
		if _, ok := l.Classify(frameFrom(t, "10.3.9.9", "10.2.0.1")); ok != c.claimed {
			t.Errorf("SrcBits %d: foreign source claimed = %v, want %v", c.bits, ok, c.claimed)
		}
	}
	// A custom classifier ignores the prefix fields altogether.
	l := newTestLVRM(t, &fakeClock{}, nil)
	if _, err := l.AddVR(VRConfig{Name: "all", SrcBits: 40, Classify: func(*packet.Frame) bool { return true }, Engine: testEngineFactory(t)}); err != nil {
		t.Errorf("SrcBits is ignored when Classify is set, got %v", err)
	}
}

func TestClassifyCustomFunc(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(VRConfig{
		Name:     "all",
		Classify: func(f *packet.Frame) bool { return true },
		Engine:   testEngineFactory(t),
	})
	if got, ok := l.Classify(&packet.Frame{}); !ok || got != v {
		t.Error("custom classifier ignored")
	}
}

func TestRecvDispatchProcessRelay(t *testing.T) {
	clock := &fakeClock{}
	qa := netio.NewQueueAdapter(netio.PFRing, 64)
	l := newTestLVRM(t, clock, qa)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))

	qa.Inject(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	if l.RecvDispatchBatch(1) == 0 {
		t.Fatal("RecvDispatchBatch found no frame")
	}
	if v.Dispatched() != 1 {
		t.Errorf("Dispatched = %d", v.Dispatched())
	}
	// Drive the VRI one step: it should process and emit the frame.
	a := v.VRIs()[0]
	clock.advance(time.Microsecond)
	if res := a.StepBatch(clock.now, 1, nil); res.Frames != 1 || res.Cost <= 0 {
		t.Fatalf("StepBatch = %+v", res)
	}
	if got := l.RelayOut(0); got != 1 {
		t.Fatalf("RelayOut = %d", got)
	}
	out, ok := qa.Harvest()
	if !ok {
		t.Fatal("no frame on TX ring")
	}
	if out.Out != 1 {
		t.Errorf("forwarded Out = %d, want 1", out.Out)
	}
	st := l.Stats()
	if st.Received != 1 || st.Sent != 1 || st.Unclassified != 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestUnclassifiedCounted(t *testing.T) {
	clock := &fakeClock{}
	qa := netio.NewQueueAdapter(netio.PFRing, 64)
	l := newTestLVRM(t, clock, qa)
	l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	qa.Inject(frameFrom(t, "172.16.0.1", "10.2.0.1"))
	l.RecvDispatchBatch(1)
	if st := l.Stats(); st.Unclassified != 1 {
		t.Errorf("Unclassified = %d", st.Unclassified)
	}
}

func TestControlRelayBetweenVRIs(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 2,
	})
	vris := v.VRIs()
	a, b := vris[0], vris[1]
	ev := &ControlEvent{DstVR: v.ID, DstVRI: b.ID, Payload: []byte("sync"), SentAt: clock.now}
	if !a.SendControl(ev) {
		t.Fatal("SendControl failed")
	}
	if moved := l.RelayControl(); moved != 1 {
		t.Fatalf("RelayControl = %d", moved)
	}
	var got *ControlEvent
	clock.advance(time.Microsecond)
	did := b.StepBatch(clock.now, 1, func(e *ControlEvent) { got = e }).Did()
	if !did || got == nil {
		t.Fatal("VRI b did not receive the control event")
	}
	if string(got.Payload) != "sync" || got.SrcVRI != a.ID || got.SrcVR != v.ID {
		t.Errorf("event = %+v", got)
	}
	if b.ControlHandled() != 1 {
		t.Errorf("ControlHandled = %d", b.ControlHandled())
	}
}

func TestControlPriorityOverData(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	// Enqueue a data frame first, then a control event.
	a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	a.Control.In.Enqueue(&ControlEvent{})
	did := a.StepBatch(clock.now, 1, nil).Did()
	if !did {
		t.Fatal("no work")
	}
	if a.ControlHandled() != 1 || a.Processed() != 0 {
		t.Errorf("control not prioritized: ctl=%d data=%d", a.ControlHandled(), a.Processed())
	}
	// Next step takes the data frame.
	a.StepBatch(clock.now, 1, nil)
	if a.Processed() != 1 {
		t.Errorf("data frame not processed after control")
	}
}

func TestControlToUnknownDestinationDropped(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	a.SendControl(&ControlEvent{DstVR: 7, DstVRI: 3})
	a.SendControl(&ControlEvent{DstVR: 0, DstVRI: 99})
	l.RelayControl()
	if st := l.Stats(); st.ControlDropped != 2 || st.ControlRelayed != 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestMaybeAllocatePacing(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t),
		Policy: alloc.NewFixed(3),
	})
	// First call runs immediately (lastAlloc is -period).
	ev := l.MaybeAllocate(clock.now)
	if len(ev) != 1 || !ev[0].Grow {
		t.Fatalf("first pass events = %+v", ev)
	}
	// Within the period: no pass.
	clock.advance(500 * time.Millisecond)
	if ev := l.MaybeAllocate(clock.now); ev != nil {
		t.Fatalf("pass ran before period elapsed: %+v", ev)
	}
	// After the period: next single step toward the fixed target.
	clock.advance(600 * time.Millisecond)
	ev = l.MaybeAllocate(clock.now)
	if len(ev) != 1 {
		t.Fatalf("second pass events = %+v", ev)
	}
	if l.VRs()[0].Cores() != 3 {
		t.Errorf("cores = %d after two passes (start 1 + 2 grows)", l.VRs()[0].Cores())
	}
}

func TestAllocateGrowShrinkWithDynamicPolicy(t *testing.T) {
	clock := &fakeClock{now: 1}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t),
		Policy: alloc.NewDynamicFixed(60000),
	})
	// Feed arrivals at ~120.05 Kfps so the estimator crosses the 60 Kfps
	// threshold and the policy wants 3 cores... actually (60K,120K] wants
	// 2; above 120K wants 3. Use 130 Kfps.
	gap := time.Second / 130000
	for i := 0; i < 500; i++ {
		clock.advance(gap)
		v.arrival.Observe(clock.now)
	}
	ev := l.Allocate(clock.now)
	if len(ev) != 1 || !ev[0].Grow {
		t.Fatalf("grow events = %+v", ev)
	}
	ev = l.Allocate(clock.now)
	if len(ev) != 1 || !ev[0].Grow {
		t.Fatalf("second grow = %+v", ev)
	}
	if v.Cores() != 3 {
		t.Fatalf("cores = %d, want 3", v.Cores())
	}
	// Hold at 3: another pass does nothing.
	if ev := l.Allocate(clock.now); len(ev) != 0 {
		t.Fatalf("hold pass = %+v", ev)
	}
	// Load vanishes: feed slow arrivals (1 Kfps) to drag the EWMA down.
	for i := 0; i < 500; i++ {
		clock.advance(time.Millisecond)
		v.arrival.Observe(clock.now)
	}
	ev = l.Allocate(clock.now)
	if len(ev) != 1 || ev[0].Grow {
		t.Fatalf("shrink events = %+v", ev)
	}
	// Alloc events accumulated; latencies populated per the cost model.
	all := l.AllocEvents()
	if len(all) != 3 {
		t.Fatalf("AllocEvents = %d", len(all))
	}
	for _, e := range all {
		if e.Latency <= 0 || e.Latency > 2*time.Millisecond {
			t.Errorf("event latency = %v", e.Latency)
		}
	}
	// Allocation latency must exceed deallocation latency (heavyweight
	// process creation, Figure 4.11).
	if all[0].Latency <= all[2].Latency {
		t.Errorf("alloc %v not above dealloc %v", all[0].Latency, all[2].Latency)
	}
}

// TestAllocEventsAreBounded: the allocation history keeps the newest
// maxAllocEvents events, oldest first, while the count keeps the total — a
// monitor that migrates four times a second for a month must not grow.
func TestAllocEventsAreBounded(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	a := v.VRIs()[0]
	const n = 5000
	for i := 0; i < n; i++ {
		if i == maxAllocEvents-1 {
			// Not yet wrapped: everything recorded so far, in order.
			if all := l.AllocEvents(); len(all) != i || all[0].At != 0 || all[i-1].At != int64(i-1) {
				t.Fatalf("before the bound: %d events, first At %d, last At %d", len(all), all[0].At, all[i-1].At)
			}
		}
		l.record(v, int64(i), obs.KindMigrate, a, time.Microsecond, "")
	}
	if got := l.Stats().AllocationCount; got != n {
		t.Errorf("AllocationCount = %d, want %d", got, n)
	}
	all := l.AllocEvents()
	if len(all) != maxAllocEvents {
		t.Fatalf("AllocEvents kept %d events, want %d", len(all), maxAllocEvents)
	}
	for i, ev := range all {
		if want := int64(n - maxAllocEvents + i); ev.At != want {
			t.Fatalf("kept event %d has At %d, want %d (newest %d, oldest first)", i, ev.At, want, maxAllocEvents)
		}
	}
}

func TestShrinkReleasesNonSiblingFirst(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 5, // cores 1,2,3 (siblings) + 4,5
	})
	a, err := l.shrinkVR(v)
	if err != nil {
		t.Fatal(err)
	}
	if a.Core != 5 {
		t.Errorf("shrink released core %d, want 5 (non-sibling, highest)", a.Core)
	}
	if a.State() != VRIStopped {
		t.Errorf("destroyed VRI state = %v", a.State())
	}
}

func TestGrowFailsWhenMachineFull(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 7,
	})
	if _, err := l.AddVR(vrCfg(t, "vr2", "10.3.0.0", 16)); err == nil {
		t.Error("AddVR succeeded with no free cores")
	}
}

// TestMonitorPassEndToEnd drives the live monitor's pass by hand: the runtime
// is not started, so no goroutine consumes the two VRIs and the test steps
// them itself, alternating with passes until the trace drains.
func TestMonitorPassEndToEnd(t *testing.T) {
	clock := &fakeClock{}
	frames, _ := trace.Generate(trace.GenerateOpts{Count: 50})
	mem := netio.NewMemoryAdapter(frames, false)
	l := newTestLVRM(t, clock, mem)
	v, _ := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), Balancer: balance.NewRoundRobin(), InitialVRIs: 2,
	})
	rt := NewRuntime(l)
	for i := 0; i < 500; i++ {
		clock.advance(time.Microsecond)
		rt.pass(true)
		for _, a := range v.VRIs() {
			for {
				if !a.StepBatch(clock.now, 1, nil).Did() {
					break
				}
			}
		}
		l.RelayOut(0)
	}
	if got := mem.Sent(); got != 50 {
		t.Errorf("memory adapter Sent = %d, want 50", got)
	}
	// Round-robin spread the work across both VRIs.
	vris := v.VRIs()
	if vris[0].Processed() != 25 || vris[1].Processed() != 25 {
		t.Errorf("VRI processed = %d/%d", vris[0].Processed(), vris[1].Processed())
	}
}

func TestVRIStoppedStepsNothing(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 2,
	})
	a, err := l.shrinkVR(v)
	if err != nil {
		t.Fatal(err)
	}
	a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	if a.StepBatch(clock.now, 1, nil).Did() {
		t.Error("stopped VRI did work")
	}
}

func TestVRAccessors(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(VRConfig{
		Name: "vrx", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), Balancer: balance.NewRoundRobin(),
		MaxVRIs: 2, InitialVRIs: 2,
	})
	if v.Name() != "vrx" {
		t.Errorf("Name = %q", v.Name())
	}
	if v.Balancer().Name() != "rr" {
		t.Errorf("Balancer = %q", v.Balancer().Name())
	}
	if v.ArrivalRate() != 0 {
		t.Errorf("fresh ArrivalRate = %v", v.ArrivalRate())
	}
	// MaxVRIs caps dynamic growth: a fixed-at-5 policy can't get past 2.
	v.cfg.Policy = alloc.NewFixed(5)
	l.Allocate(clock.now)
	if v.Cores() != 2 {
		t.Errorf("Cores = %d, MaxVRIs=2 not honoured", v.Cores())
	}
}

func TestServiceRatePerVRIUnknown(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	if v.ServiceRatePerVRI() != 0 {
		t.Errorf("fresh ServiceRatePerVRI = %v", v.ServiceRatePerVRI())
	}
	// Saturated stepping produces a service estimate.
	a := v.VRIs()[0]
	for i := 0; i < 50; i++ {
		a.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	}
	for i := 0; i < 50; i++ {
		clock.advance(10 * time.Microsecond)
		a.StepBatch(clock.now, 1, nil)
	}
	if v.ServiceRatePerVRI() <= 0 {
		t.Error("no service-rate estimate after back-to-back service")
	}
}

func TestFrameTimestampSetOnReceive(t *testing.T) {
	clock := &fakeClock{now: 12345}
	qa := netio.NewQueueAdapter(netio.PFRing, 16)
	l := newTestLVRM(t, clock, qa)
	v, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	qa.Inject(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	l.RecvDispatchBatch(1)
	f, ok := v.VRIs()[0].Data.In.Dequeue()
	if !ok || f.Timestamp != 12345 {
		t.Errorf("Timestamp = %d, want clock value 12345", f.Timestamp)
	}
}

func TestStatusSnapshot(t *testing.T) {
	clock := &fakeClock{}
	qa := netio.NewQueueAdapter(netio.PFRing, 64)
	l := newTestLVRM(t, clock, qa)
	l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 2,
	})
	qa.Inject(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	l.RecvDispatchBatch(1)
	st := l.Status()
	if len(st.VRs) != 1 || st.VRs[0].Name != "vr1" || st.VRs[0].Cores != 2 {
		t.Fatalf("Status = %+v", st)
	}
	if st.VRs[0].Dispatched != 1 || len(st.VRs[0].VRIs) != 2 {
		t.Errorf("VR status = %+v", st.VRs[0])
	}
	if st.VRs[0].VRIs[0].Engine != "basic" {
		t.Errorf("engine = %q", st.VRs[0].VRIs[0].Engine)
	}
	if st.VRs[0].Balancer != "jsq" {
		t.Errorf("locked-path VR reports balancer %q, want jsq", st.VRs[0].Balancer)
	}

	// A flow-dispatched VR without a balancer pins new flows to the
	// least-loaded VRI, and a VRI's depth includes transplant residue staged
	// ahead of its ring.
	fl, fv := newReplicaLVRM(t, clock, 1, 2)
	a := fv.VRIs()[0]
	a.stagePre(flowFrame(t, 1))
	a.handed.Add(1)
	if !a.hand(flowFrame(t, 1)) {
		t.Fatal("ring refused a frame")
	}
	fst := fl.Status().VRs[0]
	if fst.Balancer != "flow-affinity" {
		t.Errorf("flow-dispatched VR reports balancer %q, want flow-affinity", fst.Balancer)
	}
	if got := fst.VRIs[0].DataQueueLen; got != 2 {
		t.Errorf("data_queue_len = %d with one staged and one queued frame, want 2", got)
	}

	js, err := l.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Status
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("StatusJSON not valid JSON: %v", err)
	}
	if back.Stats.Received != 1 {
		t.Errorf("round-tripped Received = %d", back.Stats.Received)
	}

	// A running runtime gives each VRI of the two-VRI VR a worker and runs a
	// one-VRI VR's instance on the monitor; stopped, it runs none.
	rt := NewRuntime(l)
	if _, err := l.AddVR(vrCfg(t, "vr2", "10.3.0.0", 16)); err != nil {
		t.Fatal(err)
	}
	consumers := func() map[string][]string {
		got := map[string][]string{}
		for _, vs := range l.Status().VRs {
			for _, a := range vs.VRIs {
				got[vs.Name] = append(got[vs.Name], a.Consumer)
			}
		}
		return got
	}
	rt.Start()
	if got, want := consumers(), map[string][]string{"vr1": {"worker", "worker"}, "vr2": {"monitor"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("running: consumers = %v, want %v", got, want)
	}
	if js, err := l.StatusJSON(); err != nil || !strings.Contains(string(js), `"consumer": "monitor"`) {
		t.Errorf("StatusJSON lacks the monitor consumer (err %v)", err)
	}
	rt.Stop()
	if got, want := consumers(), map[string][]string{"vr1": {"worker", "worker"}, "vr2": {"worker"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("stopped: consumers = %v, want %v", got, want)
	}
}
