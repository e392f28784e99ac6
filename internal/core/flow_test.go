package core

import (
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/flow"
	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
)

// newFlowLVRM builds an LVRM with flow-sharded dispatch enabled and one VR
// holding nVRIs instances.
func newFlowLVRM(t testing.TB, clock *fakeClock, shards, nVRIs, queueCap int) (*LVRM, *VR) {
	t.Helper()
	l, err := New(Config{
		Adapter:      netio.NewQueueAdapter(netio.PFRing, 8192),
		Clock:        clock.fn(),
		FlowShards:   shards,
		FlowTableCap: 4096,
		DataQueueCap: queueCap,
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

// flowFrame builds a frame of one specific flow: the source port is the flow
// identity (everything else fixed), so frames with equal port hash to equal
// flow keys.
func flowFrame(t testing.TB, flowID int) *packet.Frame {
	t.Helper()
	f, err := packet.BuildUDP(packet.UDPBuildOpts{
		Src: packet.IPv4(10, 1, 0, byte(1+flowID%200)), Dst: packet.IPv4(10, 2, 0, 1),
		SrcPort: uint16(1000 + flowID), DstPort: 9, WireSize: packet.MinWireSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlowDispatchAffinity(t *testing.T) {
	clock := &fakeClock{}
	l, v := newFlowLVRM(t, clock, 4, 3, 4096)

	// 20 frames of one flow, interleaved with other flows, each dispatched
	// as a burst of one.
	var mine, others []*packet.Frame
	for i := 0; i < 20; i++ {
		mine = append(mine, flowFrame(t, 7))
		others = append(others, flowFrame(t, 100+i))
	}
	for i := range mine {
		if !dispatchOne(l, mine[i]) || !dispatchOne(l, others[i]) {
			t.Fatalf("dispatch %d rejected", i)
		}
	}
	// Every frame of flow 7 must sit in exactly one VRI's queue.
	owner := -1
	for _, a := range v.VRIs() {
		buf := make([]*packet.Frame, 64)
		n := ipc.DequeueBatch(a.Data.In, buf)
		for _, f := range buf[:n] {
			for _, m := range mine {
				if f == m {
					if owner >= 0 && owner != a.ID {
						t.Fatalf("flow 7 split across VRIs %d and %d", owner, a.ID)
					}
					owner = a.ID
				}
			}
		}
	}
	if owner < 0 {
		t.Fatal("flow 7 frames not found in any VRI queue")
	}
	st, ok := v.FlowStats()
	if !ok {
		t.Fatal("FlowStats reported flow dispatch off")
	}
	// One miss per distinct flow (21), hits for the rest.
	if st.Misses != 21 || st.Hits != 19 {
		t.Errorf("stats = %+v, want 21 misses 19 hits", st)
	}
	if l.Stats().Received != 40 {
		t.Errorf("received = %d, want 40", l.Stats().Received)
	}
}

// TestFlowOrderingAcrossEpochs is the per-flow ordering guarantee: a flow's
// frames come out of the VRI queues in dispatch order even while VRIs spawn
// and die around it. Single-threaded so the expected order is exact.
func TestFlowOrderingAcrossEpochs(t *testing.T) {
	clock := &fakeClock{}
	l, v := newFlowLVRM(t, clock, 2, 2, 4096)

	seq := make(map[*packet.Frame]int) // dispatch order of flow A's frames
	next := 0
	dispatchA := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			f := flowFrame(t, 42)
			seq[f] = next
			next++
			clock.advance(1000)
			if !dispatchOne(l, f) {
				t.Fatalf("dispatch of flow frame %d rejected", next-1)
			}
		}
	}
	pinOf := func() *VRIAdapter {
		t.Helper()
		for _, a := range v.VRIs() {
			if a.Data.In.Len() > 0 {
				return a
			}
		}
		t.Fatal("flow A queued nowhere")
		return nil
	}
	drainInOrder := func(a *VRIAdapter, wantFrom, wantTo int) {
		t.Helper()
		want := wantFrom
		for {
			f, ok := a.Data.In.Dequeue()
			if !ok {
				break
			}
			s, isA := seq[f]
			if !isA {
				continue
			}
			if s != want {
				t.Fatalf("flow A frame out of order: got seq %d, want %d", s, want)
			}
			want++
		}
		if want != wantTo+1 {
			t.Fatalf("drained flow A up to seq %d, want %d", want-1, wantTo)
		}
	}

	// Phase 1: pin the flow and back up its queue.
	dispatchA(10)
	pinned := pinOf()

	// A spawn bumps the epoch; the backed-up flow must NOT move (moving
	// would let the new VRI overtake the 10 queued frames).
	if _, err := l.growVR(v, clock.now); err != nil {
		t.Fatal(err)
	}
	dispatchA(10)
	if got := pinned.Data.In.Len(); got != 20 {
		t.Fatalf("pinned VRI holds %d frames after spawn epoch, want 20 (flow moved?)", got)
	}
	st, _ := v.FlowStats()
	if st.Refreshes == 0 {
		t.Errorf("stats = %+v, want refreshes > 0 (stale pin kept)", st)
	}
	drainInOrder(pinned, 0, 19)

	// Destroying the pinned VRI bumps the epoch again; the flow re-balances
	// onto a surviving VRI and stays ordered there.
	if err := v.destroyVRI(pinned); err != nil {
		t.Fatal(err)
	}
	dispatchA(5)
	st, _ = v.FlowStats()
	if st.Rebalances == 0 {
		t.Errorf("stats = %+v, want rebalances > 0 after destroy", st)
	}
	moved := pinOf()
	if moved == pinned {
		t.Fatal("flow still pinned to destroyed VRI")
	}
	drainInOrder(moved, 20, 24)
}

// TestFlowOffMatchesSeedPath pins the byte-identical-when-off contract: with
// FlowShards zero the VR has no flow table and dispatch runs the balancer
// path. Either way the data-in ring is the paper's SPSC ring, since the
// monitor is its only producer.
func TestFlowOffMatchesSeedPath(t *testing.T) {
	clock := &fakeClock{}
	l := newTestLVRM(t, clock, nil)
	v, err := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	if err != nil {
		t.Fatal(err)
	}
	if v.FlowTable() != nil {
		t.Fatal("flow table exists with FlowShards = 0")
	}
	if _, ok := v.FlowStats(); ok {
		t.Fatal("FlowStats reports enabled with FlowShards = 0")
	}
	if _, ok := v.VRIs()[0].Data.In.(*ipc.SPSC[*packet.Frame]); !ok {
		t.Fatalf("data-in queue = %T, want SPSC with flow off", v.VRIs()[0].Data.In)
	}
	_, vf := newFlowLVRM(t, clock, 2, 1, 64)
	if _, ok := vf.VRIs()[0].Data.In.(*ipc.SPSC[*packet.Frame]); !ok {
		t.Fatalf("data-in queue = %T, want SPSC with flow on", vf.VRIs()[0].Data.In)
	}
}

// benchDispatch measures the monitor's dispatch of one frame at a time,
// flow-sharded (shards > 0) or through the balancer (shards = 0), over a VR
// holding vris instances (a replica set when maxReplicas > 1). Per-VRI
// consumer goroutines drain the queues so the benchmark measures the
// dispatch path, not queue backpressure.
func benchDispatch(b *testing.B, shards, vris, maxReplicas int) {
	clock := &fakeClock{}
	l, err := New(Config{
		Adapter:      netio.NewQueueAdapter(netio.PFRing, 8192),
		Clock:        clock.fn(),
		FlowShards:   shards,
		FlowTableCap: 4096,
		DataQueueCap: 1 << 16,
		MaxReplicas:  maxReplicas,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := vrCfg(b, "vr1", "10.1.0.0", 16)
	cfg.InitialVRIs = vris
	v, err := l.AddVR(cfg)
	if err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var consumers sync.WaitGroup
	for _, a := range v.VRIs() {
		consumers.Add(1)
		go func(a *VRIAdapter) {
			defer consumers.Done()
			buf := make([]*packet.Frame, 256)
			for {
				if ipc.DequeueBatch(a.Data.In, buf) == 0 {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}
		}(a)
	}

	// 256 flows, frames pre-built off-clock.
	var fs []*packet.Frame
	for i := 0; i < 256; i++ {
		fs = append(fs, flowFrame(b, i))
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatchOne(l, fs[i%len(fs)])
	}
	b.StopTimer()
	close(stop)
	consumers.Wait()
}

func BenchmarkDispatch(b *testing.B) {
	for _, mode := range []struct {
		name   string
		shards int
	}{{"locked", 0}, {"sharded", 8}} {
		b.Run(mode.name, func(b *testing.B) { benchDispatch(b, mode.shards, 3, 0) })
	}
	// Replica fan-out: one VRI vs a 4-replica set of the same VR. Dispatch
	// cost is what's measured — the flow table spreads the partitions over
	// the replicas.
	for _, rep := range []struct {
		name              string
		vris, maxReplicas int
	}{{"single", 1, 0}, {"replicated-4", 4, 4}} {
		b.Run("sharded/"+rep.name, func(b *testing.B) {
			benchDispatch(b, 8, rep.vris, rep.maxReplicas)
		})
	}
}

// newBalancedFlowLVRM builds a flow-dispatch LVRM with one VR of nVRIs
// instances whose new flows bal picks (nil keeps the least-loaded pick), and
// load-aware admission at admitDepth (0 admits everything).
func newBalancedFlowLVRM(t testing.TB, clock *fakeClock, p *pool.Pool, nVRIs, admitDepth int, bal balance.Balancer) (*LVRM, *VR) {
	t.Helper()
	l, err := New(Config{
		Adapter:    netio.NewQueueAdapter(netio.PFRing, 8192),
		Clock:      clock.fn(),
		FramePool:  p,
		FlowShards: 1, FlowTableCap: 1 << 16, FlowAdmitDepth: admitDepth,
		DataQueueCap: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.InitialVRIs, cfg.Balancer = nVRIs, bal
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, v
}

// refTargets is the target list a balancer sees for vris. With
// FreezeLoadOnRead set, a VRI's load is its queue estimate as it stands, so
// a reference balancer reads the same loads as the VR's own without moving
// them.
func refTargets(vris []*VRIAdapter) []balance.Target {
	ts := make([]balance.Target, len(vris))
	for i, a := range vris {
		ts[i] = balance.Target{ID: a.ID, Load: a.QueueEst.Estimate}
	}
	return ts
}

// TestFlowVRBalancerPicksNewFlows is the paper's flow-based balancing
// (Section 3.3, Figure 3.3) as one table plus a pick policy: on a flow VR the
// configured balancer places each new flow exactly where the bare balancer
// puts it for the same target sequence, later frames follow the pin, and
// destroying a VRI re-picks its flows through the balancer while the others
// stay. A nil balancer keeps the least-loaded pick, a lone VRI takes its new
// flows without a pick, load-aware admission still refuses a new flow behind
// a backlog, and a burst of pooled misses allocates nothing.
func TestFlowVRBalancerPicksNewFlows(t *testing.T) {
	schemes := []struct {
		name string
		mk   func() balance.Balancer
	}{
		{"rr", func() balance.Balancer { return balance.NewRoundRobin() }},
		{"random", func() balance.Balancer { return balance.NewRandom(7) }},
		{"jsq", func() balance.Balancer { return balance.NewJSQ() }},
	}
	for _, s := range schemes {
		t.Run(s.name, func(t *testing.T) {
			const nFlows = 24
			clock := &fakeClock{}
			l, v := newBalancedFlowLVRM(t, clock, nil, 4, 0, s.mk())
			for _, a := range v.VRIs() {
				a.FreezeLoadOnRead = true
			}
			if got := l.Status().VRs[0].Balancer; got != "flow-"+s.name {
				t.Errorf("status balancer = %q, want flow-%s", got, s.name)
			}
			ref := s.mk()
			// dispatchTo dispatches a frame of flow fl and checks that it
			// landed on, and left the flow pinned to, the VRI want.
			dispatchTo := func(fl int, want *VRIAdapter) {
				t.Helper()
				f := flowFrame(t, fl)
				key, before := flow.KeyOf(f), want.PendingData()
				if !dispatchOne(l, f) {
					t.Fatalf("flow %d: dispatch rejected", fl)
				}
				if pin, ok := v.FlowTable().PinOf(key); !ok || pin != want.ID || want.PendingData() != before+1 {
					t.Fatalf("flow %d: pinned to %d (ok=%v), VRI %d depth %d -> %d; want it on VRI %d",
						fl, pin, ok, want.ID, before, want.PendingData(), want.ID)
				}
			}

			vris := v.VRIs()
			pins := make([]*VRIAdapter, nFlows)
			for fl := range pins {
				pins[fl] = vris[ref.Pick(refTargets(vris), flowFrame(t, fl))]
				dispatchTo(fl, pins[fl])
			}
			if got := len(v.FlowTable().PartitionSizes()); got != len(vris) {
				t.Errorf("%d flows spread over %d of %d VRIs", nFlows, got, len(vris))
			}
			for round := 0; round < 3; round++ {
				for fl, a := range pins {
					dispatchTo(fl, a)
				}
			}
			if st, _ := v.FlowStats(); st.Misses != nFlows || st.Hits != 3*nFlows {
				t.Errorf("stats = %+v, want %d misses and %d hits", st, nFlows, 3*nFlows)
			}

			// Destroying a VRI leaves its flows' pins naming a dead instance:
			// each re-picks through the balancer, over the survivors, in
			// frame order. The survivors still owe frames, so their flows
			// stay.
			dead := vris[1]
			if err := v.destroyVRI(dead); err != nil {
				t.Fatal(err)
			}
			live := v.VRIs()
			moved := 0
			for fl, a := range pins {
				if a == dead {
					pins[fl] = live[ref.Pick(refTargets(live), flowFrame(t, fl))]
					moved++
				}
				dispatchTo(fl, pins[fl])
			}
			st, _ := v.FlowStats()
			if moved == 0 || st.Rebalances != int64(moved) || st.Refreshes != int64(nFlows-moved) {
				t.Errorf("stats = %+v, want %d rebalances and %d refreshes", st, moved, nFlows-moved)
			}
		})
	}

	t.Run("nil-balancer", func(t *testing.T) {
		l, v := newBalancedFlowLVRM(t, &fakeClock{}, nil, 4, 0, nil)
		if v.Balancer() != nil {
			t.Fatalf("flow VR got balancer %q, want none", v.Balancer().Name())
		}
		if got := l.Status().VRs[0].Balancer; got != "flow-affinity" {
			t.Errorf("status balancer = %q, want flow-affinity", got)
		}
		for fl := 0; fl < 12; fl++ {
			want := leastLoaded(v.VRIs())
			f := flowFrame(t, fl)
			if !dispatchOne(l, f) {
				t.Fatalf("flow %d: dispatch rejected", fl)
			}
			if pin, _ := v.FlowTable().PinOf(flow.KeyOf(f)); pin != want.ID {
				t.Fatalf("flow %d pinned to VRI %d, want least-loaded %d", fl, pin, want.ID)
			}
		}
	})

	t.Run("one-vri", func(t *testing.T) {
		// A lone VRI is no choice: its misses do not ask the balancer, and
		// the first miss after a second VRI spawns does.
		clock := &fakeClock{}
		log := &pickLog{Balancer: balance.NewRoundRobin()}
		l, v := newBalancedFlowLVRM(t, clock, nil, 1, 0, log)
		for fl := 0; fl < 4; fl++ {
			if !dispatchOne(l, flowFrame(t, fl)) {
				t.Fatalf("flow %d: dispatch rejected", fl)
			}
		}
		if len(log.picks) != 0 {
			t.Fatalf("balancer asked %d times with one VRI, want 0", len(log.picks))
		}
		if _, err := l.growVR(v, clock.now); err != nil {
			t.Fatal(err)
		}
		if !dispatchOne(l, flowFrame(t, 99)) || len(log.picks) != 1 {
			t.Fatalf("balancer asked %d times for a new flow over two VRIs, want 1", len(log.picks))
		}
	})

	t.Run("admission", func(t *testing.T) {
		const depth = 2
		l, v := newBalancedFlowLVRM(t, &fakeClock{}, nil, 2, depth, balance.NewRoundRobin())
		// Round-robin leaves each of the two queues depth frames deep.
		for fl := 0; fl < 2*depth; fl++ {
			if !dispatchOne(l, flowFrame(t, fl)) {
				t.Fatalf("flow %d shed before the backlog", fl)
			}
		}
		if dispatchOne(l, flowFrame(t, 99)) {
			t.Fatal("new flow admitted with every queue at the admission depth")
		}
		if got := v.AdmissionShed(); got != 1 {
			t.Errorf("AdmissionShed = %d, want 1", got)
		}
		if !dispatchOne(l, flowFrame(t, 0)) {
			t.Error("established flow shed")
		}
	})

	t.Run("pooled-misses-allocs", func(t *testing.T) {
		clock := &fakeClock{}
		p := pool.New()
		l, v := newBalancedFlowLVRM(t, clock, p, 4, 0, balance.NewJSQ())
		proto := flowFrame(t, 0)
		var (
			frames  [16]*packet.Frame
			scratch [16]parsed
			port    uint16
		)
		// burst dispatches 16 frames of flows never seen before, then empties
		// the VRI queues.
		burst := func() {
			for i := range frames {
				f := p.Copy(proto)
				port++
				binary.BigEndian.PutUint16(f.Buf[packet.EthHeaderLen+packet.IPv4HeaderLen:], port)
				frames[i] = f
			}
			clock.advance(time.Microsecond)
			l.dispatchBurst(frames[:], scratch[:], clock.now)
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
		for i := 0; i < 8; i++ {
			burst()
		}
		restore := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(100, burst)
		debug.SetGCPercent(restore)
		if allocs != 0 && !raceEnabled {
			t.Errorf("burst of 16 pooled misses: %.2f allocs, want 0", allocs)
		}
		if st, _ := v.FlowStats(); st.Misses != int64(port) || st.Hits != 0 {
			t.Errorf("stats = %+v, want %d misses and no hits", st, port)
		}
	})
}
