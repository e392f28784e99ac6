package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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

	// 20 frames of one flow, interleaved with other flows, all dispatched
	// through the public concurrent-safe entry point.
	var mine, others []*packet.Frame
	for i := 0; i < 20; i++ {
		mine = append(mine, flowFrame(t, 7))
		others = append(others, flowFrame(t, 100+i))
	}
	for i := range mine {
		if !l.Dispatch(mine[i]) || !l.Dispatch(others[i]) {
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
			if !l.Dispatch(f) {
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

// TestFlowConcurrentDispatch hammers flow dispatch from several goroutines
// under -race: every goroutine owns a disjoint set of flows, so after the
// storm each flow's frames must sit in exactly one VRI queue in that
// goroutine's dispatch order — strict affinity, since no epochs move.
func TestFlowConcurrentDispatch(t *testing.T) {
	clock := &fakeClock{}
	l, v := newFlowLVRM(t, clock, 8, 3, 1<<15)

	const workers = 4
	const flowsPer = 32
	const perFlow = 50

	type tag struct{ flow, seq int }
	tags := make([]map[*packet.Frame]tag, workers)
	frames := make([][]*packet.Frame, workers)
	for w := 0; w < workers; w++ {
		tags[w] = make(map[*packet.Frame]tag)
		for s := 0; s < perFlow; s++ {
			for fl := 0; fl < flowsPer; fl++ {
				id := w*flowsPer + fl
				f := flowFrame(t, id)
				tags[w][f] = tag{flow: id, seq: s}
				frames[w] = append(frames[w], f)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, f := range frames[w] {
				if !l.Dispatch(f) {
					t.Errorf("worker %d: dispatch rejected", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if v.InDrops() != 0 {
		t.Fatalf("in drops = %d, want 0 (queues sized for the storm)", v.InDrops())
	}
	// Drain every queue; check per-flow ownership and ordering.
	ownerOf := make(map[int]int) // flow -> VRI ID
	lastSeq := make(map[int]int) // flow -> last seq seen
	total := 0
	for _, a := range v.VRIs() {
		buf := make([]*packet.Frame, 256)
		for {
			n := ipc.DequeueBatch(a.Data.In, buf)
			if n == 0 {
				break
			}
			for _, f := range buf[:n] {
				var tg tag
				found := false
				for w := 0; w < workers && !found; w++ {
					if x, ok := tags[w][f]; ok {
						tg, found = x, true
					}
				}
				if !found {
					t.Fatal("unknown frame in VRI queue")
				}
				if prev, ok := ownerOf[tg.flow]; ok && prev != a.ID {
					t.Fatalf("flow %d split across VRIs %d and %d", tg.flow, prev, a.ID)
				}
				ownerOf[tg.flow] = a.ID
				if last, ok := lastSeq[tg.flow]; ok && tg.seq <= last {
					t.Fatalf("flow %d: seq %d after %d (reordered)", tg.flow, tg.seq, last)
				}
				lastSeq[tg.flow] = tg.seq
				total++
			}
		}
	}
	if want := workers * flowsPer * perFlow; total != want {
		t.Fatalf("drained %d frames, want %d", total, want)
	}
}

// TestFlowBurstsBesideConcurrentDispatch is the vector pass's lock-order
// argument as a test: the monitor dispatches 16-frame bursts — each taking
// several shard locks at once — while ingest goroutines call Dispatch, one
// shard lock at a time, against the same four-shard table, and another
// goroutine keeps bumping the epoch so that bursts also go through Assign.
// Everything must finish within the deadline (no lock cycle), every frame must
// be in a queue (conservation), and each flow — dispatched by one goroutine, in
// sequence — must sit on one VRI in that sequence. Run under -race in CI.
func TestFlowBurstsBesideConcurrentDispatch(t *testing.T) {
	const (
		workers   = 4
		perWorker = 2000
		bursts    = 200
		burst     = 16
		flowsPer  = 40 // flows per dispatching goroutine, disjoint between them
	)
	clock := &fakeClock{}
	ca := netio.NewChanAdapter(burst)
	l, err := New(Config{
		Adapter: ca, Clock: clock.fn(), RecvBatch: burst, AllocPeriod: time.Hour,
		FlowShards: 4, FlowTableCap: 4096, DataQueueCap: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.InitialVRIs = 3
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Frame i of dispatcher d belongs to flow d*flowsPer + i%flowsPer and
	// carries (flow, i) in f.In, which dispatch never reads.
	frame := func(d, i int) *packet.Frame {
		flowID := d*flowsPer + i%flowsPer
		f := flowFrame(t, flowID)
		f.In = flowID<<20 | i
		return f
	}
	frames := make([][]*packet.Frame, workers+1) // built here: flowFrame may t.Fatal
	for d := range frames {
		n := perWorker
		if d == workers {
			n = bursts * burst
		}
		for i := 0; i < n; i++ {
			frames[d] = append(frames[d], frame(d, i))
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	bumped := make(chan struct{})
	go func() {
		defer close(bumped)
		for {
			select {
			case <-stop:
				return
			default:
				v.FlowTable().BumpEpoch()
				runtime.Gosched()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, f := range frames[w] {
				if !l.Dispatch(f) {
					t.Errorf("worker %d: dispatch rejected", w)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // the monitor
		defer wg.Done()
		for b := 0; b < bursts; b++ {
			// The whole test can fit inside one scheduler time slice, in
			// which case the bumping goroutine never runs beside the
			// dispatchers; these bumps make stale pins certain.
			if b%8 == 7 {
				v.FlowTable().BumpEpoch()
			}
			for _, f := range frames[workers][b*burst : (b+1)*burst] {
				ca.RX <- f
			}
			if got := l.RecvDispatchBatch(0); got != burst {
				t.Errorf("burst %d: received %d frames", b, got)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("dispatchers did not finish: shard locks deadlocked?")
	}
	close(stop)
	<-bumped

	if v.InDrops() != 0 || v.AdmissionShed() != 0 {
		t.Fatalf("in-drops %d, shed %d, want 0 (queues sized for everything)", v.InDrops(), v.AdmissionShed())
	}
	ownerOf := make(map[int]int) // flow -> VRI ID
	lastSeq := make(map[int]int) // flow -> last sequence number seen
	total := 0
	buf := make([]*packet.Frame, 256)
	for _, a := range v.VRIs() {
		for n := ipc.DequeueBatch(a.Data.In, buf); n > 0; n = ipc.DequeueBatch(a.Data.In, buf) {
			for _, f := range buf[:n] {
				flowID, seq := f.In>>20, f.In&(1<<20-1)
				if prev, ok := ownerOf[flowID]; ok && prev != a.ID {
					t.Fatalf("flow %d split across VRIs %d and %d", flowID, prev, a.ID)
				}
				ownerOf[flowID] = a.ID
				if last, ok := lastSeq[flowID]; ok && seq <= last {
					t.Fatalf("flow %d: frame %d after %d (reordered)", flowID, seq, last)
				}
				lastSeq[flowID] = seq
				total++
			}
		}
	}
	if want := workers*perWorker + bursts*burst; total != want {
		t.Fatalf("drained %d frames, want %d", total, want)
	}
	if st, _ := v.FlowStats(); st.Refreshes == 0 {
		t.Errorf("no burst went through Assign for a stale pin: %+v", st)
	}
}

// TestFlowOffMatchesSeedPath pins the byte-identical-when-off contract: with
// FlowShards zero the VR has no flow table, data-in queues stay SPSC, and
// dispatch runs the locked balancer path.
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
	// And with flow on, the data-in ring is multi-producer.
	_, vf := newFlowLVRM(t, clock, 2, 1, 64)
	if _, ok := vf.VRIs()[0].Data.In.(*ipc.MPSC[*packet.Frame]); !ok {
		t.Fatalf("data-in queue = %T, want MPSC with flow on", vf.VRIs()[0].Data.In)
	}
}

// benchDispatch measures dispatch throughput with the given number of ingest
// goroutines, flow-sharded (shards > 0) or mutex-locked (shards = 0), over a
// VR holding vris instances (a replica set when maxReplicas > 1).
// Per-VRI consumer goroutines drain the queues so the benchmark measures the
// dispatch path, not queue backpressure.
func benchDispatch(b *testing.B, shards, workers, vris, maxReplicas int) {
	clock := &fakeClock{}
	var l *LVRM
	var v *VR
	var err error
	if shards == 0 {
		l, err = New(Config{
			Adapter:      netio.NewQueueAdapter(netio.PFRing, 8192),
			Clock:        clock.fn(),
			DataQueueCap: 1 << 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := vrCfg(b, "vr1", "10.1.0.0", 16)
		cfg.InitialVRIs = vris
		if v, err = l.AddVR(cfg); err != nil {
			b.Fatal(err)
		}
	} else {
		l, err = New(Config{
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
		if v, err = l.AddVR(cfg); err != nil {
			b.Fatal(err)
		}
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

	// Disjoint flow sets per ingest goroutine, frames pre-built off-clock.
	frames := make([][]*packet.Frame, workers)
	for w := 0; w < workers; w++ {
		for i := 0; i < 256; i++ {
			frames[w] = append(frames[w], flowFrame(b, w*256+i))
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fs := frames[w]
			for i := 0; i < per; i++ {
				l.Dispatch(fs[i%len(fs)])
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	close(stop)
	consumers.Wait()
}

func BenchmarkDispatch(b *testing.B) {
	for _, mode := range []struct {
		name   string
		shards int
	}{{"locked", 0}, {"sharded", 8}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/ingest-%d", mode.name, workers), func(b *testing.B) {
				benchDispatch(b, mode.shards, workers, 3, 0)
			})
		}
	}
	// Replica fan-out: the heaviest ingest mix against one VRI vs a
	// 4-replica set of the same VR. Dispatch cost is what's measured — the
	// flow table spreads the partitions over the replicas, so the MPSC
	// enqueue contention per ring drops as the set widens.
	for _, rep := range []struct {
		name              string
		vris, maxReplicas int
	}{{"single", 1, 0}, {"replicated-4", 4, 4}} {
		b.Run(fmt.Sprintf("sharded/%s/ingest-8", rep.name), func(b *testing.B) {
			benchDispatch(b, 8, 8, rep.vris, rep.maxReplicas)
		})
	}
}
