package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/flow"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/vr"
)

// TestMoveVRIRelocatesPartition is the live-move contract in the
// single-threaded testbed: a backlogged VRI relocates to another core, every
// pin and every queued frame follows it in order, the source closes at
// Stopped, and its core is returned to the allocator.
func TestMoveVRIRelocatesPartition(t *testing.T) {
	clock := &fakeClock{}
	l, v := newReplicaLVRM(t, clock, 1, 2)
	const nFlows, perFlow = 8, 5

	seq := pushFlows(t, l, nFlows, perFlow)
	src := v.VRIs()[0]
	srcCore := src.Core
	freeBefore := l.Allocator().FreeCount()

	rep, err := l.MoveVRI(v.ID, src.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != MigrateMove || rep.SrcVRI != src.ID {
		t.Fatalf("report = %+v, want a move from VRI %d", rep, src.ID)
	}
	if rep.Moved != nFlows*perFlow || rep.Dropped != 0 || rep.Returned != 0 {
		t.Fatalf("report moved/dropped/returned = %d/%d/%d, want %d/0/0",
			rep.Moved, rep.Dropped, rep.Returned, nFlows*perFlow)
	}
	if rep.Pins == 0 {
		t.Fatal("move flipped no pins: the partition did not follow")
	}

	vris := v.VRIs()
	if len(vris) != 1 {
		t.Fatalf("VR runs %d VRIs after the move, want 1", len(vris))
	}
	dst := vris[0]
	if dst.ID == src.ID || dst.Core == srcCore {
		t.Fatalf("destination %d/core %d did not relocate from %d/core %d",
			dst.ID, dst.Core, src.ID, srcCore)
	}
	if src.State() != VRIStopped {
		t.Fatalf("source state = %v, want stopped", src.State())
	}
	if got := l.Allocator().FreeCount(); got != freeBefore {
		t.Fatalf("free cores = %d after move, want %d (source core released)", got, freeBefore)
	}
	// Every flow now pins to the destination, and the residue sits on its
	// staging queue in dispatch order.
	checkPartition(t, v, seq)
	if m := v.Migrations(); m.Moves != 1 || m.FramesMoved != nFlows*perFlow {
		t.Fatalf("migration totals = %+v, want 1 move, %d frames", m, nFlows*perFlow)
	}
	if got := dst.MigratedIn(); got != nFlows*perFlow {
		t.Fatalf("destination MigratedIn = %d, want %d", got, nFlows*perFlow)
	}
}

// TestMoveVRIToSpecificCore pins the destination to a caller-chosen core.
func TestMoveVRIToSpecificCore(t *testing.T) {
	clock := &fakeClock{}
	l, v := newReplicaLVRM(t, clock, 1, 2)
	src := v.VRIs()[0]

	target := -1
	for c := 0; c < l.Config().Topology.Total(); c++ {
		if c != src.Core && c != l.Allocator().LVRMCore() {
			target = c
			break
		}
	}
	if target < 0 {
		t.Skip("no spare core in the test topology")
	}
	if _, err := l.MoveVRI(v.ID, src.ID, target); err != nil {
		t.Fatal(err)
	}
	if got := v.VRIs()[0].Core; got != target {
		t.Fatalf("moved to core %d, want %d", got, target)
	}
}

// TestMoveVRIRejections: unknown VR/VRI, the no-op same-core move, and a
// non-running source must all fail without touching the topology.
func TestMoveVRIRejections(t *testing.T) {
	clock := &fakeClock{}
	l, v := newReplicaLVRM(t, clock, 2, 2)
	src := v.VRIs()[0]

	if _, err := l.MoveVRI(99, src.ID, -1); err == nil {
		t.Error("move on unknown VR succeeded")
	}
	if _, err := l.MoveVRI(v.ID, 99, -1); err == nil {
		t.Error("move on unknown VRI succeeded")
	}
	if _, err := l.MoveVRI(v.ID, src.ID, src.Core); err == nil {
		t.Error("same-core move succeeded")
	}
	if _, err := l.retire(v, src, migration{kind: MigrateDrain}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.MoveVRI(v.ID, src.ID, -1); err == nil {
		t.Error("move of a stopped VRI succeeded")
	}
}

// TestDrainRoutesThroughEngine asserts the teardown path is the engine:
// a drain's report carries the same accounting the VR's migration totals
// aggregate, and the per-kind totals see exactly one drain.
func TestDrainRoutesThroughEngine(t *testing.T) {
	clock := &fakeClock{}
	l, v := newReplicaLVRM(t, clock, 2, 2)
	const nFlows, perFlow = 8, 4
	pushFlows(t, l, nFlows, perFlow)

	victim := v.VRIs()[0]
	queued := victim.PendingData()
	if queued == 0 {
		t.Fatal("victim holds no frames: drain test is vacuous")
	}
	rep, err := l.retire(v, victim, migration{kind: MigrateDrain})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != MigrateDrain {
		t.Fatalf("kind = %v, want drain", rep.Kind)
	}
	if int(rep.Moved) != queued || rep.Dropped != 0 {
		t.Fatalf("moved/dropped = %d/%d, want %d/0 (one live survivor)", rep.Moved, rep.Dropped, queued)
	}
	m := v.Migrations()
	if m.FramesMoved != rep.Moved || m.PinsFlipped != rep.Pins {
		t.Fatalf("migration totals %+v do not aggregate the report %+v", m, rep)
	}
	if m.Drains != 1 || m.Splits != 0 || m.Folds != 0 || m.Moves != 0 {
		t.Fatalf("migration totals = %+v, want exactly one drain", m)
	}
	// Frames are conserved: the survivor's ring holds everything.
	survivor := v.VRIs()[0]
	if got := survivor.PendingData(); got+int(rep.Dropped) < queued {
		t.Fatalf("survivor holds %d of %d drained frames", got, queued)
	}
}

// TestStatusReportsMigrations: the status page must carry the per-VR
// migration totals and each VRI's partition size and transplant count.
func TestStatusReportsMigrations(t *testing.T) {
	clock := &fakeClock{}
	l, v := newReplicaLVRM(t, clock, 1, 2)
	const nFlows, perFlow = 8, 3
	pushFlows(t, l, nFlows, perFlow)
	if _, err := l.MoveVRI(v.ID, v.VRIs()[0].ID, -1); err != nil {
		t.Fatal(err)
	}

	st := l.Status()
	if len(st.VRs) != 1 {
		t.Fatalf("status has %d VRs, want 1", len(st.VRs))
	}
	vs := st.VRs[0]
	if vs.Migrations.Moves != 1 || vs.Migrations.FramesMoved != nFlows*perFlow {
		t.Fatalf("status migrations = %+v, want 1 move of %d frames", vs.Migrations, nFlows*perFlow)
	}
	if len(vs.VRIs) != 1 {
		t.Fatalf("status has %d VRIs, want 1", len(vs.VRIs))
	}
	vi := vs.VRIs[0]
	if vi.MigratedIn != nFlows*perFlow {
		t.Errorf("status MigratedIn = %d, want %d", vi.MigratedIn, nFlows*perFlow)
	}
	if vi.PartitionFlows != nFlows {
		t.Errorf("status PartitionFlows = %d, want %d", vi.PartitionFlows, nFlows)
	}
}

// TestSplitFoldMoveDecision pins the controller's third verb: a sustained-hot
// VR at its replica ceiling with free cores must get MoveReplica, with no
// free cores must hold, and below the ceiling must still split.
func TestSplitFoldMoveDecision(t *testing.T) {
	hot := func(load *balance.VRLoad) {
		load.Replicas = []balance.ReplicaLoad{{ID: 0, Depth: 1000}}
		load.ArrivalFPS = 1e6
	}
	cases := []struct {
		name      string
		atCeiling bool
		freeCores int
		want      balance.SplitDecision
	}{
		{"below-ceiling", false, 3, balance.SplitReplica},
		{"at-ceiling-free-core", true, 3, balance.MoveReplica},
		{"at-ceiling-no-core", true, 0, balance.HoldReplicas},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctl := balance.NewSplitFold(balance.SplitFoldConfig{
				SplitDepth: 4, Sustain: 1, MinGap: time.Nanosecond,
			})
			load := balance.VRLoad{AtCeiling: tc.atCeiling, FreeCores: tc.freeCores}
			hot(&load)
			ctl.Decide(1, load) // arm MinGap
			if got := ctl.Decide(int64(time.Second), load); got != tc.want {
				t.Fatalf("Decide = %v, want %v", got, tc.want)
			}
		})
	}
}

// spinEngine delays every frame by busy-waiting, like lagEngine but with a
// deterministic cost: time.Sleep's actual latency is kernel-dependent (a
// 50 µs sleep can take >1 ms under coarse timer slack), and this soak's
// live moves pile staged residue an order of magnitude past the ring cap —
// the drain budget only holds if the per-frame cost is what it says.
type spinEngine struct{ inner vr.Engine }

func (e spinEngine) Process(f *packet.Frame) (time.Duration, error) {
	deadline := time.Now().Add(200 * time.Microsecond)
	for time.Now().Before(deadline) {
	}
	return e.inner.Process(f)
}
func (e spinEngine) Name() string { return "spin-" + e.inner.Name() }

// TestMigrationSoak is the engine's race test: one replicated VR under the
// live runtime with real worker goroutines and a poisoned pool, fed
// sequence-stamped flow traffic while the allocation pass splits and folds
// AND concurrent Runtime.MoveVRI calls relocate whichever instance is
// hottest — an arbitrary interleaving of every migration kind. At the end
// every received frame must be accounted for, no flow may ever have been
// observed out of order at TX, and the pool must read zero outstanding.
func TestMigrationSoak(t *testing.T) {
	p := pool.NewWithOptions(pool.Options{Poison: true})
	ca := netio.NewChanAdapter(4096)
	// A small data ring bounds how much residue one live move can strand in
	// the destination's staging area (staged frames are never dropped, so
	// the post-soak drain must be able to afford the whole pile).
	l, err := New(Config{
		Adapter: ca, Clock: WallClock, FramePool: p,
		FlowShards: 8, FlowTableCap: 4096,
		DataQueueCap: 256,
		MaxReplicas:  3,
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
		return spinEngine{inner: e}, err
	}
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	// TX drain with per-flow sequence monotonicity (same scheme as the
	// replica soaks: flow = UDP source port, sequence = IPv4 ID).
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

	// Prototype frames, one per flow, sequenced by patching the IPv4 ID and
	// recomputing the header checksum on a pooled copy: the feeder has to
	// outrun the spin-loaded VRIs on a shared CPU, and per-frame BuildUDP
	// is slow enough to hide the overload the soak exists to create.
	protos := make([]*packet.Frame, flows)
	for fl := range protos {
		proto, err := packet.BuildUDP(packet.UDPBuildOpts{
			Src: packet.IPv4(10, 1, 0, byte(1+fl)), Dst: packet.IPv4(10, 2, 0, 1),
			SrcPort: uint16(1000 + fl), DstPort: 9,
			WireSize: packet.MinWireSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		protos[fl] = proto
	}
	seq := make([]uint16, flows)
	fed := int64(0)
	feed := func(burst int) {
		for i := 0; i < burst; i++ {
			fl := int(fed) % flows
			f := p.Copy(protos[fl])
			ip := f.Buf[packet.EthHeaderLen:]
			binary.BigEndian.PutUint16(ip[4:6], seq[fl])
			ip[10], ip[11] = 0, 0
			binary.BigEndian.PutUint16(ip[10:12], packet.Checksum(ip[:20]))
			seq[fl]++
			ca.RX <- f
			fed++
		}
	}

	// Mover goroutine: every few milliseconds, live-migrate whichever VRI
	// currently holds the deepest backlog. Failed moves (no free core, the
	// instance died mid-request, shutdown) are expected — the assertion is
	// that nothing is ever lost or reordered, not that every move lands.
	var moves, moveFails int64
	stopMove := make(chan struct{})
	moveDone := make(chan struct{})
	go func() {
		defer close(moveDone)
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stopMove:
				return
			case <-time.After(time.Duration(4+rng.Intn(8)) * time.Millisecond):
			}
			vris := v.VRIs()
			if len(vris) == 0 {
				continue
			}
			hot := vris[0]
			for _, a := range vris[1:] {
				if a.PendingData() > hot.PendingData() {
					hot = a
				}
			}
			if _, err := rt.MoveVRI(v.ID, hot.ID, -1); err == nil {
				moves++
			} else {
				moveFails++
			}
		}
	}()

	// Load phases: overload bursts to provoke splits, then a trickle to
	// provoke folds, with live moves running throughout.
	heavyUntil := time.Now().Add(time.Second)
	for time.Now().Before(heavyUntil) {
		feed(64)
		time.Sleep(200 * time.Microsecond)
	}
	trickleUntil := time.Now().Add(time.Second)
	for time.Now().Before(trickleUntil) {
		feed(4)
		time.Sleep(2 * time.Millisecond)
	}

	close(stopMove)
	<-moveDone
	// Generous real-time deadlines: the suite may be time-slicing a single
	// CPU with other packages, and a starved monitor is not a dirty one.
	waitFor(t, 30*time.Second, func() bool { return l.Stats().Received == fed })
	if !rt.StopWithin(30 * time.Second) {
		for _, a := range v.VRIs() {
			t.Logf("vri=%d core=%d state=%v pending=%d out=%d",
				a.ID, a.Core, a.State(), a.PendingData(), a.Data.Out.Len())
		}
		t.Fatal("StopWithin reported dirty after migration soak")
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

	// Conservation across every drain/split/fold/move transplant: every
	// received frame is in one ledger bucket, none still in flight.
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
	st := l.Ledger()
	if txGot != st.Sent {
		t.Errorf("TX delivered %d frames, Stats.Sent = %d", txGot, st.Sent)
	}
	if reorders != 0 {
		t.Errorf("observed %d intra-flow reorders at TX across migrations", reorders)
	}
	if ps := p.Stats(); ps.Outstanding != 0 {
		t.Errorf("pool outstanding = %d after migration soak, want 0 (leak)", ps.Outstanding)
	}
	m := v.Migrations()
	t.Logf("migration soak: fed=%d sent=%d moves=%d moveFails=%d totals=%+v reorders=%d",
		fed, st.Sent, moves, moveFails, m, reorders)
}

// TestTransitionBookkeeping drives each of the five VRI-set transitions once
// — policy grow and shrink, replica split and fold, live move — and pins
// down what record and retire account for each: grow and split count as
// allocations, shrink and fold as deallocations, a live move as neither;
// every one observes a reaction time and appends an AllocEvent; and every
// retired VRI, whichever transition retired it, counts one destroy and
// leaves a destroy and a drain trace event.
func TestTransitionBookkeeping(t *testing.T) {
	clock := &fakeClock{}
	reg, tr := obs.NewRegistry(), obs.NewTracer(256)
	l, err := New(Config{
		Adapter:     netio.NewQueueAdapter(netio.PFRing, 64),
		Clock:       clock.fn(),
		FlowShards:  4,
		MaxReplicas: 2,
		Obs:         reg,
		Trace:       tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	if err != nil {
		t.Fatal(err)
	}
	flip := vrCfg(t, "vr2", "10.2.0.0", 16)
	flip.MaxReplicas, flip.Policy = 1, &flipPolicy{}
	if _, err := l.AddVR(flip); err != nil {
		t.Fatal(err)
	}

	if _, err := l.splitVR(replicated, clock.now, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.foldVR(replicated, clock.now, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.MoveVRI(replicated.ID, replicated.VRIs()[0].ID, -1); err != nil {
		t.Fatal(err)
	}
	// vr1 now idles on one replica, so these two passes only flip vr2.
	if evs := l.Allocate(clock.now); len(evs) != 1 || !evs[0].Grow {
		t.Fatalf("first pass = %+v, want one grow", evs)
	}
	if evs := l.Allocate(clock.now); len(evs) != 1 || evs[0].Grow {
		t.Fatalf("second pass = %+v, want one shrink", evs)
	}

	var grows []bool
	for _, ev := range l.AllocEvents() {
		grows = append(grows, ev.Grow)
	}
	if want := []bool{true, false, true, true, false}; !reflect.DeepEqual(grows, want) {
		t.Errorf("AllocEvents grow flags = %v, want %v (split, fold, move, grow, shrink)", grows, want)
	}
	if g, s := l.ins.allocGrow.Value(), l.ins.allocShrink.Value(); g != 2 || s != 2 {
		t.Errorf("alloc grow/shrink counters = %d/%d, want 2/2 (a move bumps neither)", g, s)
	}
	if c := l.ins.allocReaction.Count(); c != 5 {
		t.Errorf("reaction samples = %d, want 5", c)
	}
	if d := l.ins.vriDestroys.Value(); d != 3 {
		t.Errorf("destroy counter = %d, want 3 (fold, move, shrink)", d)
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
	}
	for kind, want := range map[obs.Kind]int{
		obs.KindAlloc: 2, obs.KindDealloc: 2, obs.KindMigrate: 1,
		obs.KindDestroy: 3, obs.KindDrain: 3,
	} {
		if kinds[kind] != want {
			t.Errorf("trace holds %d %v events, want %d (all kinds: %v)", kinds[kind], kind, want, kinds)
		}
	}
	if m := replicated.Migrations(); m.Splits != 1 || m.Folds != 1 || m.Moves != 1 || m.Drains != 0 {
		t.Errorf("vr1 migration totals = %+v, want one split, fold and move", m)
	}
}

// TestDrainRepinsThroughBalancer: a drain re-pins each flow of the retired
// VRI the way a new flow is placed (pickFlow). Under round-robin the retired
// VRI's 100 flows split evenly over the two survivors; with no balancer they
// all go to the least-loaded survivor. Either way the drained frames sit
// where their flows are pinned, in order, and the ledger balances.
func TestDrainRepinsThroughBalancer(t *testing.T) {
	for _, tc := range []struct {
		name string
		bal  balance.Balancer
	}{{"rr", balance.NewRoundRobin()}, {"nil", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &fakeClock{}
			l, v := newBalancedFlowLVRM(t, clock, nil, 3, 0, tc.bal)
			const nFlows = 300
			seq := pushFlows(t, l, nFlows, 1)
			before := v.FlowTable().PartitionSizes()
			for _, a := range v.VRIs() {
				if before[a.ID] != nFlows/3 {
					t.Fatalf("partitions before the drain = %v, want %d flows each", before, nFlows/3)
				}
			}
			victim, err := l.shrinkVR(v)
			if err != nil {
				t.Fatal(err)
			}
			after := v.FlowTable().PartitionSizes()
			survivors := v.VRIs()
			gained := make([]int, len(survivors))
			for i, a := range survivors {
				gained[i] = after[a.ID] - before[a.ID]
			}
			want := []int{50, 50}
			if tc.bal == nil {
				want = []int{nFlows / 3, 0}
			}
			if !reflect.DeepEqual(gained, want) || after[victim.ID] != 0 {
				t.Fatalf("survivors gained %v flows (retired VRI keeps %d), want %v", gained, after[victim.ID], want)
			}
			// One more frame per flow: it lands behind its flow's drained
			// frame.
			for fl := 0; fl < nFlows; fl++ {
				f := flowFrame(t, fl)
				seq[f] = len(seq)
				if !dispatchOne(l, f) {
					t.Fatalf("flow %d: dispatch after the drain rejected", fl)
				}
			}
			// Serve and relay one survivor at a time: what each sends is what
			// sat on it, in queue order.
			qa := l.Config().Adapter.(*netio.QueueAdapter)
			last, sent := map[uint64]int{}, 0
			for _, a := range survivors {
				for a.hasWork() {
					a.StepBatch(clock.now, 64, nil)
				}
				l.RelayFrom(a, 2*nFlows)
				for {
					f, ok := qa.Harvest()
					if !ok {
						break
					}
					key := flow.KeyOf(f)
					if pin, _ := v.FlowTable().PinOf(key); pin != a.ID {
						t.Fatalf("frame of flow %#x served by VRI %d, pinned to %d", key, a.ID, pin)
					}
					if prev, ok := last[key]; ok && seq[f] <= prev {
						t.Fatalf("flow %#x reordered: seq %d after %d", key, seq[f], prev)
					}
					last[key] = seq[f]
					sent++
				}
			}
			if sent != len(seq) {
				t.Fatalf("sent %d frames, dispatched %d", sent, len(seq))
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
