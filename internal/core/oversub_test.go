package core

import (
	"testing"

	"lvrm/internal/netio"
	"lvrm/internal/packet"
)

func mustIP(t *testing.T, s string) packet.IP {
	t.Helper()
	return packet.MustParseIP(s)
}

func TestOversubscribeOntoLVRMCore(t *testing.T) {
	clock := &fakeClock{}
	adapter := netio.NewQueueAdapter(netio.PFRing, 64)
	l, err := New(Config{Adapter: adapter, Clock: clock.fn(), AllowSharedLVRMCore: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: mustIP(t, "10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 8, // 7 free cores + 1 shared
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Cores() != 8 {
		t.Fatalf("Cores = %d, want 8 (7 dedicated + LVRM's)", v.Cores())
	}
	onLVRM := 0
	for _, a := range v.VRIs() {
		if a.Core == l.Allocator().LVRMCore() {
			onLVRM++
		}
	}
	if onLVRM != 1 {
		t.Errorf("%d VRIs share the LVRM core, want exactly 1", onLVRM)
	}
	// The shared VRI still processes frames.
	shared := v.VRIs()[7]
	shared.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	if !shared.StepBatch(clock.now, 1, nil).Did() {
		t.Error("shared-core VRI did no work")
	}
	// Shrinking releases a dedicated core first... the shared one ranks as
	// a sibling; either way shrink must not corrupt the allocator.
	if _, err := l.shrinkVR(v); err != nil {
		t.Fatal(err)
	}
	if v.Cores() != 7 {
		t.Errorf("Cores = %d after shrink", v.Cores())
	}
	// A second VR without the flag still fails on the packed machine.
	l2, _ := New(Config{Adapter: adapter, Clock: clock.fn()})
	if _, err := l2.AddVR(VRConfig{
		Name: "vr1", Engine: testEngineFactory(t), InitialVRIs: 8,
		Classify: func(f *packet.Frame) bool { return true },
	}); err == nil {
		t.Error("8 VRIs accepted without AllowSharedLVRMCore")
	}
}

// TestRelayOneFrom relays one frame from a chosen VRI, as the testbed does
// after each completion.
func TestRelayOneFrom(t *testing.T) {
	clock := &fakeClock{}
	qa := netio.NewQueueAdapter(netio.PFRing, 64)
	l := newTestLVRM(t, clock, qa)
	v, _ := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: mustIP(t, "10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 2,
	})
	vris := v.VRIs()
	a, b := vris[0], vris[1]
	// Both VRIs produce output; RelayFrom must drain the requested one
	// even when the other also has frames waiting.
	for _, vri := range []*VRIAdapter{a, b} {
		vri.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
		vri.StepBatch(clock.now, 1, nil)
	}
	if l.RelayFrom(b, 1) != 1 {
		t.Fatal("RelayFrom(b, 1) failed")
	}
	if b.Data.Out.Len() != 0 {
		t.Error("b's frame not drained")
	}
	if a.Data.Out.Len() != 1 {
		t.Error("a's frame stolen")
	}
	if l.RelayFrom(a, 1) != 1 {
		t.Fatal("RelayFrom(a, 1) failed")
	}
	if l.RelayFrom(a, 1) != 0 {
		t.Error("RelayFrom on empty queue reported a frame")
	}
	if st := l.Stats(); st.Sent != 2 {
		t.Errorf("Sent = %d", st.Sent)
	}
}
