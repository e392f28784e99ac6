package core

import (
	"encoding/binary"
	"testing"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
)

// newAdmitLVRM builds an LVRM with flow dispatch and load-aware admission
// enabled: new flows are shed once every VRI input queue reaches depth.
func newAdmitLVRM(t testing.TB, clock *fakeClock, nVRIs, queueCap, depth int) (*LVRM, *VR) {
	t.Helper()
	l, err := New(Config{
		Adapter:        netio.NewQueueAdapter(netio.PFRing, 8192),
		Clock:          clock.fn(),
		FlowShards:     4,
		FlowTableCap:   4096,
		FlowAdmitDepth: depth,
		DataQueueCap:   queueCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.InitialVRIs = nVRIs
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, v
}

// TestAdmissionShedsNewFlowsOnly is the load-aware admission contract: once
// every VRI's input queue is at least -flow-admit deep, a frame of a flow the
// table has never seen is shed (counted, frame released), while frames of
// established flows keep landing on their pins.
func TestAdmissionShedsNewFlowsOnly(t *testing.T) {
	const depth = 4
	clock := &fakeClock{}
	l, v := newAdmitLVRM(t, clock, 2, 256, depth)

	// Establish flows while the queues are still below the admission depth
	// (leastLoaded balances misses by queue length, so 6 distinct flows leave
	// each queue 3 deep), then deepen the backlog with frames of those same
	// flows — hits land on their pins without consulting admission.
	const established = 2*depth - 2
	for i := 0; i < established; i++ {
		if !dispatchOne(l, flowFrame(t, i)) {
			t.Fatalf("flow %d rejected before backlog", i)
		}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < established; i++ {
			if !dispatchOne(l, flowFrame(t, i)) {
				t.Fatalf("established flow %d shed on round %d (hits bypass admission)", i, round)
			}
		}
	}
	for _, a := range v.VRIs() {
		if got := a.Data.In.Len(); got < depth {
			t.Fatalf("VRI %d queue = %d, want >= %d (setup)", a.ID, got, depth)
		}
	}

	// A brand-new flow must be shed: dispatch fails, the shed is counted in
	// the VR, the LVRM stats, and the table's refusal counter, and no pin is
	// installed.
	before := v.FlowTable().Len()
	if dispatchOne(l, flowFrame(t, 999)) {
		t.Fatal("new flow admitted with every queue past the admission depth")
	}
	if got := v.AdmissionShed(); got != 1 {
		t.Fatalf("AdmissionShed = %d, want 1", got)
	}
	if got := l.Stats().AdmitShed; got != 1 {
		t.Fatalf("Stats.AdmitShed = %d, want 1", got)
	}
	fs, _ := v.FlowStats()
	if fs.Refusals != 1 {
		t.Fatalf("flow refusals = %d, want 1", fs.Refusals)
	}
	if v.FlowTable().Len() != before {
		t.Fatalf("table len changed %d -> %d on a shed", before, v.FlowTable().Len())
	}
	// Shed frames are drops, not queue losses.
	if v.InDrops() != 0 {
		t.Fatalf("in drops = %d, want 0 (shed is its own counter)", v.InDrops())
	}

	// Established flows stay admitted through the same backlog.
	if !dispatchOne(l, flowFrame(t, 0)) {
		t.Fatal("established flow shed")
	}
	// Even across an epoch bump (stale pin, keep path): still admitted.
	v.FlowTable().BumpEpoch()
	if !dispatchOne(l, flowFrame(t, 1)) {
		t.Fatal("established flow shed after epoch bump")
	}
	fs, _ = v.FlowStats()
	if fs.Refreshes == 0 {
		t.Fatalf("stats = %+v, want refreshes > 0 (stale pin kept through backlog)", fs)
	}

	// Drain the queues below the depth: new flows are admitted again.
	for _, a := range v.VRIs() {
		for {
			f, ok := a.Data.In.Dequeue()
			if !ok {
				break
			}
			f.Release()
		}
	}
	if !dispatchOne(l, flowFrame(t, 1000)) {
		t.Fatal("new flow shed after queues drained")
	}
	if got := v.AdmissionShed(); got != 1 {
		t.Fatalf("AdmissionShed = %d after recovery, want 1", got)
	}
}

// TestAdmissionDisabledByDefault: FlowAdmitDepth zero admits new flows no
// matter how deep the queues are — the pre-admission behavior, bit for bit.
func TestAdmissionDisabledByDefault(t *testing.T) {
	clock := &fakeClock{}
	l, v := newAdmitLVRM(t, clock, 1, 1024, 0)
	for i := 0; i < 512; i++ {
		if !dispatchOne(l, flowFrame(t, i)) {
			t.Fatalf("flow %d rejected with admission off", i)
		}
	}
	if got := v.AdmissionShed(); got != 0 {
		t.Fatalf("AdmissionShed = %d, want 0 with admission off", got)
	}
}

// BenchmarkPooledFlowDispatchHit measures the steady-state flow-dispatch hit
// path — the per-frame work once a flow is pinned — and must stay at 0
// allocs/op (the CI pooled-path gate greps it): the Assign closures and
// dispatchOne's burst-of-one scratch may not escape, and nothing on the path may
// touch the heap.
func BenchmarkPooledFlowDispatchHit(b *testing.B) {
	clock := &fakeClock{}
	l, v := newFlowLVRM(b, clock, 4, 1, 1024)
	a := v.VRIs()[0]
	f := flowFrame(b, 1)
	if !dispatchOne(l, f) {
		b.Fatal("pin frame rejected")
	}
	if _, ok := a.Data.In.Dequeue(); !ok {
		b.Fatal("pin frame not queued")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !dispatchOne(l, f) {
			b.Fatal("frame rejected")
		}
		if _, ok := a.Data.In.Dequeue(); !ok {
			b.Fatal("dispatched frame not queued")
		}
	}
}

// BenchmarkPooledFlowDispatchBurst is the same path as a vector: 16-frame
// bursts of pooled frames over a flow VR of two VRIs, fifteen frames of
// pinned flows around one frame of a new flow, so that every burst takes
// AssignHits' pass over the leading hits, a flush, a round-robin pick for the
// new flow, and Assign for the frames after it. It must stay at 0 allocs/op
// too (the CI pooled-path gate greps it).
func BenchmarkPooledFlowDispatchBurst(b *testing.B) {
	clock := &fakeClock{}
	p := pool.New()
	l, v := newBalancedFlowLVRM(b, clock, p, 2, 0, balance.NewRoundRobin())
	proto := flowFrame(b, 0)
	var (
		frames  [16]*packet.Frame
		scratch [16]parsed
		fresh   = uint32(len(frames)) // the ports of the next new flow
	)
	burst := func() {
		for i := range frames {
			f := p.Copy(proto)
			ports := uint32(i) // source port 0, destination port i: pinned
			if i == len(frames)/2 {
				ports = fresh
				fresh++
			}
			binary.BigEndian.PutUint32(f.Buf[packet.EthHeaderLen+packet.IPv4HeaderLen:], ports)
			frames[i] = f
		}
		clock.advance(time.Microsecond)
		if got := l.dispatchBurst(frames[:], scratch[:], clock.now); got != len(frames) {
			b.Fatalf("burst: %d of %d frames accepted", got, len(frames))
		}
		for _, a := range v.VRIs() {
			for {
				f, ok := a.Data.In.Dequeue()
				if !ok {
					break
				}
				f.Release()
			}
		}
	}
	burst() // pins the fifteen established flows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
	b.StopTimer()
	// Past the table's capacity a new flow runs unpinned: an overflow.
	if st, _ := v.FlowStats(); st.Misses+st.Overflows != int64(b.N)+16 {
		b.Fatalf("stats = %+v, want one new flow per burst after the first", st)
	}
}
