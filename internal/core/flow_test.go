package core

import (
	"runtime"
	"sync"
	"testing"

	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
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
