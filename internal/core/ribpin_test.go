package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/rib"
	"lvrm/internal/vr"
)

// ribAdd is a convenience constructor for announce events in tests.
func ribAdd(cidr string, bits uint8, outIf uint16) rib.Event {
	return rib.Event{
		Prefix: packet.MustParseIP(cidr), Bits: bits, OutIf: outIf,
		Src: rib.SrcStatic, Distance: 0,
	}
}

// TestVRIPinsFIBGeneration: a VRI backed by the epoch-swapped FIB pins the
// current generation at the top of each Step/StepBatch quantum. A publish
// between quanta is invisible until the next quantum, then picked up whole.
func TestVRIPinsFIBGeneration(t *testing.T) {
	r := rib.New(rib.Options{})
	for _, e := range []rib.Event{
		ribAdd("10.1.0.0", 16, 0),
		ribAdd("10.2.0.0", 16, 1),
	} {
		if err := r.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	r.Publish()

	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: vr.BasicFactory(vr.BasicConfig{FIB: r.FIB()}),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := v.VRIs()[0]

	// An idle Step still pins: the generation gauge tracks the FIB.
	a.StepBatch(clock.now, 1, nil)
	gen1 := a.RouteGeneration()
	if gen1 != r.FIB().Generation() || gen1 == 0 {
		t.Fatalf("pinned generation %d, FIB at %d", gen1, r.FIB().Generation())
	}

	// Routed traffic forwards; unrouted traffic drops.
	f := frameFrom(t, "10.1.0.5", "10.2.0.1")
	a.Data.In.Enqueue(f)
	clock.advance(time.Microsecond)
	a.StepBatch(clock.now, 1, nil)
	if f.Out != 1 {
		t.Fatalf("10.2/16 frame forwarded to %d, want 1", f.Out)
	}
	f2 := frameFrom(t, "10.1.0.5", "10.3.0.1")
	a.Data.In.Enqueue(f2)
	clock.advance(time.Microsecond)
	a.StepBatch(clock.now, 1, nil)
	if f2.Out != vr.Drop {
		t.Fatalf("unrouted frame forwarded to %d", f2.Out)
	}

	// Publish a new route between quanta: the VRI's pin is unchanged until
	// its next quantum begins.
	if err := r.Apply(ribAdd("10.3.0.0", 16, 1)); err != nil {
		t.Fatal(err)
	}
	r.Publish()
	if r.FIB().Generation() == gen1 {
		t.Fatal("publish did not advance the FIB generation")
	}
	if a.RouteGeneration() != gen1 {
		t.Fatalf("pin moved to %d without a new quantum", a.RouteGeneration())
	}

	// The next quantum (batched this time) pins the new generation and the
	// previously unroutable destination forwards.
	f3 := frameFrom(t, "10.1.0.5", "10.3.0.1")
	a.Data.In.Enqueue(f3)
	clock.advance(time.Microsecond)
	a.StepBatch(clock.now, 16, nil)
	if f3.Out != 1 {
		t.Fatalf("post-publish frame forwarded to %d, want 1", f3.Out)
	}
	if a.RouteGeneration() != r.FIB().Generation() {
		t.Fatalf("StepBatch pinned %d, FIB at %d", a.RouteGeneration(), r.FIB().Generation())
	}
}

// TestInstrumentRIBMetrics: wiring a RIB into the monitor exports the
// lvrm_rib_*/lvrm_fib_* series and the per-VRI pinned-generation gauge.
func TestInstrumentRIBMetrics(t *testing.T) {
	r := rib.New(rib.Options{})
	if err := r.Apply(ribAdd("10.2.0.0", 16, 1)); err != nil {
		t.Fatal(err)
	}
	r.Publish()

	clock := &fakeClock{}
	reg := obs.NewRegistry()
	l, err := New(Config{
		Adapter: netio.NewChanAdapter(16),
		Clock:   clock.fn(),
		RIB:     r,
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: vr.BasicFactory(vr.BasicConfig{FIB: r.FIB()}),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := v.VRIs()[0]
	a.StepBatch(clock.now, 1, nil)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"lvrm_rib_routes 1",
		"lvrm_rib_updates_total 1",
		"lvrm_fib_generation 1",
		`lvrm_vri_route_generation{vr="vr1",vri="0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("export missing %q", want)
		}
	}
}
