package core

import (
	"encoding/binary"
	"testing"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/flow"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/vr"
)

// newReplicaLVRM builds a single-threaded replicated LVRM: flow-sharded
// dispatch, one VR with nVRIs initial replicas and the given ceiling, and a
// controller aggressive enough for unit tests to trip by hand (Sustain 1,
// a nanosecond MinGap — zero would select the 10ms default).
func newReplicaLVRM(t testing.TB, clock *fakeClock, nVRIs, maxReplicas int) (*LVRM, *VR) {
	t.Helper()
	l, err := New(Config{
		Adapter:      netio.NewQueueAdapter(netio.PFRing, 8192),
		Clock:        clock.fn(),
		FlowShards:   4,
		FlowTableCap: 4096,
		DataQueueCap: 4096,
		MaxReplicas:  maxReplicas,
		SplitFold: balance.SplitFoldConfig{
			SplitDepth: 4, FoldDepth: 2, Sustain: 1, MinGap: time.Nanosecond,
		},
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

// pushFlows pushes perFlow frames of each of nFlows flows through
// dispatchOne, interleaved (flow 0..n-1, then again), recording dispatch order
// per frame. Returns the order map.
func pushFlows(t testing.TB, l *LVRM, nFlows, perFlow int) map[*packet.Frame]int {
	t.Helper()
	seq := make(map[*packet.Frame]int)
	order := 0
	for s := 0; s < perFlow; s++ {
		for fl := 0; fl < nFlows; fl++ {
			f := flowFrame(t, fl)
			seq[f] = order
			order++
			if !dispatchOne(l, f) {
				t.Fatalf("dispatch %d rejected", order-1)
			}
		}
	}
	return seq
}

// drainReplica empties one replica the way its consumer would — staging
// first, then the ring — returning the frames in service order.
func drainReplica(a *VRIAdapter) []*packet.Frame {
	var out []*packet.Frame
	for {
		f, ok := a.takePre()
		if !ok {
			f, ok = a.Data.In.Dequeue()
		}
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// checkPartition drains every replica and asserts the three split/fold
// invariants: every frame sits on the replica its flow is pinned to, each
// flow's frames come out in dispatch order, and nothing is lost or invented.
func checkPartition(t *testing.T, v *VR, seq map[*packet.Frame]int) {
	t.Helper()
	total := 0
	for _, a := range v.VRIs() {
		last := make(map[uint64]int)
		for _, f := range drainReplica(a) {
			s, known := seq[f]
			if !known {
				t.Fatalf("replica %d holds an unknown frame", a.ID)
			}
			key := flow.KeyOf(f)
			if pin, ok := v.flows.PinOf(key); !ok || pin != a.ID {
				t.Fatalf("frame of flow %#x queued on replica %d but pinned to %d (ok=%v)",
					key, a.ID, pin, ok)
			}
			if prev, ok := last[key]; ok && s <= prev {
				t.Fatalf("flow %#x reordered on replica %d: seq %d after %d", key, a.ID, s, prev)
			}
			last[key] = s
			total++
		}
	}
	if total != len(seq) {
		t.Fatalf("drained %d frames across replicas, dispatched %d", total, len(seq))
	}
}

// TestSplitVRTransplantsPartition backs up a single replica with interleaved
// flows and splits it: the moved flows' queued residue must follow their
// re-pinned flows to the new replica, in order, with nothing lost.
func TestSplitVRTransplantsPartition(t *testing.T) {
	clock := &fakeClock{}
	l, v := newReplicaLVRM(t, clock, 1, 2)
	const nFlows, perFlow = 8, 5

	seq := pushFlows(t, l, nFlows, perFlow)
	src := v.VRIs()[0]
	if got := src.PendingData(); got != nFlows*perFlow {
		t.Fatalf("backlog = %d, want %d", got, nFlows*perFlow)
	}

	ev, err := l.splitVR(v, clock.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Grow || ev.Cores != 2 {
		t.Fatalf("split event = %+v, want Grow with 2 cores", ev)
	}
	n, splits, folds := v.Replicas()
	if n != 2 || splits != 1 || folds != 0 {
		t.Fatalf("Replicas() = %d/%d/%d, want 2 replicas, 1 split, 0 folds", n, splits, folds)
	}
	// The alternate-flow partition must actually move work: both replicas own
	// part of the backlog, or the split was a no-op.
	for _, a := range v.VRIs() {
		if a.PendingData() == 0 {
			t.Fatalf("replica %d holds no residue after the split", a.ID)
		}
	}
	checkPartition(t, v, seq)
}

// TestFoldVRMergesResidue loads both replicas of a 2-replica set and folds:
// the retiring replica's flows re-pin to the survivor and its residue lands
// on the survivor's staging queue — ahead of anything dispatched later, with
// per-flow order intact.
func TestFoldVRMergesResidue(t *testing.T) {
	clock := &fakeClock{}
	l, v := newReplicaLVRM(t, clock, 2, 2)
	const nFlows, perFlow = 8, 5

	seq := pushFlows(t, l, nFlows, perFlow)
	for _, a := range v.VRIs() {
		if a.PendingData() == 0 {
			t.Fatalf("replica %d got no flows: fold test is vacuous", a.ID)
		}
	}

	ev, err := l.foldVR(v, clock.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Grow || ev.Cores != 1 {
		t.Fatalf("fold event = %+v, want shrink to 1 core", ev)
	}
	n, splits, folds := v.Replicas()
	if n != 1 || splits != 0 || folds != 1 {
		t.Fatalf("Replicas() = %d/%d/%d, want 1 replica, 0 splits, 1 fold", n, splits, folds)
	}
	if r := v.Retired(); r.VRIs != 1 {
		t.Fatalf("retired VRIs = %d, want 1", r.VRIs)
	}
	if m := v.Migrations(); m.FramesMoved == 0 || m.PinsFlipped == 0 {
		t.Fatalf("migration totals = %+v, want migrated residue and flipped pins", m)
	}
	survivor := v.VRIs()[0]
	if got := survivor.PendingData(); got != nFlows*perFlow {
		t.Fatalf("survivor holds %d frames, want the full %d", got, nFlows*perFlow)
	}
	// A frame dispatched after the fold must queue BEHIND the transplanted
	// residue (pin flip precedes the frame move).
	tail := flowFrame(t, 0)
	seq[tail] = len(seq)
	if !dispatchOne(l, tail) {
		t.Fatal("post-fold dispatch rejected")
	}
	checkPartition(t, v, seq)
}

// vetoPolicy fails the test if the inter-VR allocation policy is ever
// consulted — a replicated VR's core count belongs to the split/fold
// controller.
type vetoPolicy struct{ t *testing.T }

func (p *vetoPolicy) Decide(alloc.Snapshot) alloc.Decision {
	p.t.Error("alloc policy consulted for a replicated VR")
	return alloc.Hold
}
func (p *vetoPolicy) Name() string { return "veto" }

// TestReplicaPassSplitsAndFolds drives the controller end to end through
// Allocate: a backlog splits the VR, a drained queue folds it back, and the
// VR's own allocation policy is bypassed throughout.
func TestReplicaPassSplitsAndFolds(t *testing.T) {
	clock := &fakeClock{}
	l, err := New(Config{
		Adapter:      netio.NewQueueAdapter(netio.PFRing, 8192),
		Clock:        clock.fn(),
		FlowShards:   4,
		FlowTableCap: 4096,
		DataQueueCap: 4096,
		MaxReplicas:  2,
		SplitFold: balance.SplitFoldConfig{
			SplitDepth: 4, FoldDepth: 2, Sustain: 1, MinGap: time.Nanosecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.Policy = &vetoPolicy{t: t}
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pushFlows(t, l, 4, 4) // depth 16 >= SplitDepth 4
	clock.advance(time.Millisecond)
	evs := l.Allocate(clock.now)
	if len(evs) != 1 || !evs[0].Grow {
		t.Fatalf("allocate under backlog = %+v, want one split", evs)
	}
	if v.Cores() != 2 {
		t.Fatalf("cores after split = %d", v.Cores())
	}
	// At the ceiling, a still-hot VR must hold, not split again.
	clock.advance(time.Millisecond)
	if evs := l.Allocate(clock.now); len(evs) != 0 {
		t.Fatalf("allocate at MaxReplicas = %+v, want hold", evs)
	}

	// Drain the queues; with no service estimate yet, cold queues alone
	// justify the fold.
	for _, a := range v.VRIs() {
		drainReplica(a)
	}
	clock.advance(time.Millisecond)
	evs = l.Allocate(clock.now)
	if len(evs) != 1 || evs[0].Grow {
		t.Fatalf("allocate after drain = %+v, want one fold", evs)
	}
	n, splits, folds := v.Replicas()
	if n != 1 || splits != 1 || folds != 1 {
		t.Fatalf("Replicas() = %d/%d/%d, want 1 replica after 1 split + 1 fold", n, splits, folds)
	}
	// A single replica with cold queues holds — there is nothing to fold.
	clock.advance(time.Millisecond)
	if evs := l.Allocate(clock.now); len(evs) != 0 {
		t.Fatalf("allocate at 1 replica = %+v, want hold", evs)
	}
}

// serialEngine declares a serialized state element, which bars replication.
type serialEngine struct{ vr.Engine }

func (serialEngine) StateSpec() vr.StateSpec {
	return vr.StateSpec{{Name: "nat-map", Class: vr.StateSerialized}}
}

// TestReplicatedVRValidation pins the configuration gates: replication
// requires flow dispatch, and an engine with serialized state cannot run as
// a replica set.
func TestReplicatedVRValidation(t *testing.T) {
	if _, err := New(Config{
		Adapter:     netio.NewQueueAdapter(netio.PFRing, 64),
		MaxReplicas: 2,
	}); err == nil {
		t.Error("New accepted MaxReplicas > 1 without FlowShards")
	}

	// Per-VR override against a flow-less LVRM fails at AddVR.
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.MaxReplicas = 2
	if _, err := l.AddVR(cfg); err == nil {
		t.Error("AddVR accepted a replicated VR without flow dispatch")
	}

	// Serialized state bars replication; the same engine is fine at 1.
	lf, _ := newFlowLVRM(t, clock, 4, 1, 64)
	serial := vrCfg(t, "vr2", "10.3.0.0", 16)
	base := serial.Engine
	serial.Engine = func() (vr.Engine, error) {
		e, err := base()
		return serialEngine{Engine: e}, err
	}
	serial.MaxReplicas = 2
	if _, err := lf.AddVR(serial); err == nil {
		t.Error("AddVR replicated an engine with serialized state")
	}
	serial.Name = "vr3"
	serial.SrcPrefix = packet.MustParseIP("10.4.0.0")
	serial.MaxReplicas = 1
	if _, err := lf.AddVR(serial); err != nil {
		t.Errorf("unreplicated serialized engine rejected: %v", err)
	}

	// Negative ceilings clamp to the unreplicated default.
	ln, err := New(Config{
		Adapter:     netio.NewQueueAdapter(netio.PFRing, 64),
		Clock:       clock.fn(),
		MaxReplicas: -3,
	})
	if err != nil {
		t.Fatal(err)
	}
	vn, err := ln.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	if err != nil {
		t.Fatal(err)
	}
	if vn.replicated() {
		t.Error("negative MaxReplicas produced a replicated VR")
	}
}

// TestServiceRatePerVRIAveragesReplicas is the aggregation fix: with one
// busy replica and one idle one, the per-VRI service rate must divide the
// measured capacity by the FULL replica count — an idle replica contributed
// zero, and crediting it with the busy one's rate would double-count a split
// VR's capacity in the inter-VR allocator.
func TestServiceRatePerVRIAveragesReplicas(t *testing.T) {
	clock := &fakeClock{}
	_, v := newFlowLVRM(t, clock, 4, 2, 4096)
	busy := v.VRIs()[0]
	for i := 0; i < 50; i++ {
		busy.Data.In.Enqueue(frameFrom(t, "10.1.0.5", "10.2.0.1"))
	}
	for i := 0; i < 50; i++ {
		clock.advance(10 * time.Microsecond)
		busy.StepBatch(clock.now, 1, nil)
	}
	if !busy.SvcEst.Valid() {
		t.Fatal("no service estimate after 50 back-to-back services")
	}
	want := busy.SvcEst.Estimate() / 2
	if got := v.ServiceRatePerVRI(); got != want {
		t.Errorf("ServiceRatePerVRI = %v, want %v (busy estimate %v over 2 replicas)",
			got, want, busy.SvcEst.Estimate())
	}
}

// lagEngine delays every frame so a live replica's service capacity is small
// enough for the soak feeder to overwhelm, forcing real splits.
type lagEngine struct{ inner vr.Engine }

func (e lagEngine) Process(f *packet.Frame) (time.Duration, error) {
	time.Sleep(50 * time.Microsecond)
	return e.inner.Process(f)
}
func (e lagEngine) Name() string { return "lag-" + e.inner.Name() }

// runReplicaSoak is the live -race soak shared by the split and fold tests:
// one replicated VR under real worker goroutines and a poisoned pool, fed
// sequence-stamped flow traffic (the IPv4 ID carries a per-flow sequence
// number) until the controller splits — and, for the fold variant, until the
// collapsed load folds the set back under live trickle traffic. At the end
// every received frame must be accounted for, no flow may ever have been
// observed out of order at TX, and the pool must read zero outstanding.
func runReplicaSoak(t *testing.T, wantFold bool) {
	if testing.Short() {
		// 3-5 s of wall clock each; TestMigrationSoak keeps live split and
		// fold in the short tier.
		t.Skip("multi-second live soak: run without -short")
	}
	p := pool.NewWithOptions(pool.Options{Poison: true})
	ca := netio.NewChanAdapter(4096)
	l, err := New(Config{
		Adapter: ca, Clock: WallClock, FramePool: p,
		FlowShards: 8, FlowTableCap: 4096,
		MaxReplicas: 4,
		SplitFold: balance.SplitFoldConfig{
			SplitDepth: 8, Sustain: 2, MinGap: time.Millisecond,
		},
		AllocPeriod: 200 * time.Microsecond,
		Obs:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	base := cfg.Engine
	cfg.Engine = func() (vr.Engine, error) {
		e, err := base()
		return lagEngine{inner: e}, err
	}
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	// TX drain: release every frame and check per-flow sequence monotonicity.
	// The flow identity is the UDP source port, the sequence is the IPv4 ID
	// (per-flow counter, so a gap from a counted drop still moves forward);
	// a non-positive signed delta is an intra-flow reorder.
	const flows = 8
	var txGot, reorders int64
	lastID := make([]uint16, flows)
	seen := make([]bool, flows)
	drainOne := func(f *packet.Frame) {
		if h, payload, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:]); err == nil && len(payload) >= 2 {
			if fl := int(binary.BigEndian.Uint16(payload[:2])) - 1000; fl >= 0 && fl < flows {
				if seen[fl] && int16(h.ID-lastID[fl]) <= 0 {
					reorders++
				}
				seen[fl], lastID[fl] = true, h.ID
			}
		}
		f.Release()
		txGot++
	}
	stopTx := make(chan struct{})
	txDone := make(chan struct{})
	go func() {
		defer close(txDone)
		for {
			select {
			case f := <-ca.TX:
				drainOne(f)
			case <-stopTx:
				return
			}
		}
	}()

	// Feeder: round-robin over the flows, each frame stamped with its flow's
	// next sequence number at build time (ParseIPv4 validates the header
	// checksum, so the ID must be baked in, not patched afterwards).
	seq := make([]uint16, flows)
	fed := int64(0)
	feed := func(burst int) {
		for i := 0; i < burst; i++ {
			fl := int(fed) % flows
			proto, err := packet.BuildUDP(packet.UDPBuildOpts{
				Src: packet.IPv4(10, 1, 0, byte(1+fl)), Dst: packet.IPv4(10, 2, 0, 1),
				SrcPort: uint16(1000 + fl), DstPort: 9,
				ID: seq[fl], WireSize: packet.MinWireSize,
			})
			if err != nil {
				t.Fatal(err)
			}
			seq[fl]++
			ca.RX <- p.Copy(proto)
			fed++
		}
	}
	splitsOf := func() int64 { _, s, _ := v.Replicas(); return s }
	foldsOf := func() int64 { _, _, fo := v.Replicas(); return fo }

	// Overload phase: bursts with idle gaps (the monitor allocates only on
	// idle polls), sustained for a full second even after the set has split,
	// so frames keep flowing through replicas whose partitions were carved
	// out mid-stream — then at least two splits (or one, if the machine is
	// short on free cores) before moving on.
	sustain := time.Now().Add(time.Second)
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(sustain) || (time.Now().Before(deadline) && splitsOf() < 2) {
		feed(64)
		time.Sleep(200 * time.Microsecond)
	}
	if splitsOf() < 1 {
		t.Fatal("soak ran without a single split: no transplant exercised")
	}
	if fs, ok := v.FlowStats(); !ok || fs.Rebalances == 0 {
		t.Error("split never re-pinned a flow: the partition handoff was vacuous")
	}

	if wantFold {
		// Collapse the offered load but keep trickling, so the fold
		// transplant happens under live traffic, then wait for the set to
		// fold back.
		deadline = time.Now().Add(8 * time.Second)
		for time.Now().Before(deadline) && foldsOf() < 1 {
			feed(4)
			time.Sleep(2 * time.Millisecond)
		}
		if foldsOf() < 1 {
			t.Fatal("load collapsed but the replica set never folded")
		}
		if v.Migrations().PinsFlipped == 0 {
			t.Error("fold flipped no pins: the merge was vacuous")
		}
	}

	waitFor(t, 10*time.Second, func() bool { return l.Stats().Received == fed })
	if !rt.StopWithin(10 * time.Second) {
		t.Fatal("StopWithin reported dirty after replica soak")
	}
	close(stopTx)
	<-txDone
	for {
		select {
		case f := <-ca.TX:
			drainOne(f)
			continue
		default:
		}
		break
	}

	// Conservation across every split/fold transplant: every received frame
	// is in one ledger bucket, none still in flight.
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
	st := l.Ledger()
	if txGot != st.Sent {
		t.Errorf("TX delivered %d frames, Stats.Sent = %d", txGot, st.Sent)
	}
	if reorders != 0 {
		t.Errorf("observed %d intra-flow reorders at TX across split/fold", reorders)
	}
	if ps := p.Stats(); ps.Outstanding != 0 {
		t.Errorf("pool outstanding = %d after replica soak, want 0 (leak)", ps.Outstanding)
	}
	n, splits, folds := v.Replicas()
	m := v.Migrations()
	t.Logf("replica soak: fed=%d sent=%d replicas=%d splits=%d folds=%d migrated=%d pins=%d reorders=%d",
		fed, st.Sent, n, splits, folds, m.FramesMoved, m.PinsFlipped, reorders)
}

// TestReplicaSplitUnderLoad proves a live split loses and reorders nothing.
func TestReplicaSplitUnderLoad(t *testing.T) {
	runReplicaSoak(t, false)
}

// TestReplicaFoldUnderLoad proves a live fold under trickle traffic merges
// the partition losslessly and in order.
func TestReplicaFoldUnderLoad(t *testing.T) {
	runReplicaSoak(t, true)
}
