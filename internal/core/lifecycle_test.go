package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/vr"
)

// newPooledLVRM builds a single-threaded LVRM over a channel adapter with a
// pooled frame lifecycle, for driving teardown by hand.
func newPooledLVRM(t testing.TB, p *pool.Pool, clock *fakeClock, nVRIs int) (*LVRM, *VR, *netio.ChanAdapter) {
	t.Helper()
	ca := netio.NewChanAdapter(256)
	l, err := New(Config{
		Adapter: ca, Clock: clock.fn(), FramePool: p,
		DataQueueCap: 64, AllocPeriod: time.Hour,
		RecvBatch: 16, VRIBatch: 16, RelayBatch: 16,
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
	return l, v, ca
}

// runToQuiescence single-threadedly steps every VRI, relays, and releases TX
// frames until nothing moves.
func runToQuiescence(t testing.TB, l *LVRM, clock *fakeClock, ca *netio.ChanAdapter) {
	t.Helper()
	for spin := 0; spin < 10000; spin++ {
		clock.advance(time.Microsecond)
		work := false
		for _, v := range l.VRs() {
			for _, a := range v.VRIs() {
				if res := a.StepBatch(clock.now, 16, nil); res.Did() {
					work = true
				}
			}
		}
		if l.RelayOut(0) > 0 {
			work = true
		}
		for {
			select {
			case f := <-ca.TX:
				f.Release()
				work = true
				continue
			default:
			}
			break
		}
		if !work {
			return
		}
	}
	t.Fatal("pipeline did not quiesce")
}

// TestVRILifecycleTransitions pins the state machine's legal edges and the
// CAS guard on the illegal ones.
func TestVRILifecycleTransitions(t *testing.T) {
	clock := &fakeClock{}
	l, v, _ := newPooledLVRM(t, nil, clock, 1)
	a := v.VRIs()[0]

	if got := a.State(); got != VRIRunning {
		t.Fatalf("fresh VRI state = %v, want running", got)
	}
	// OnDestroy runs between the detach and the hand-off.
	l.OnDestroy = func(_ *VR, got *VRIAdapter) {
		if got != a {
			t.Errorf("OnDestroy got VRI %d, want %d", got.ID, a.ID)
		}
		if s := a.State(); s != VRIDraining {
			t.Errorf("state after detach = %v, want draining", s)
		}
		// The instance is off the list, so a second destroy of it fails.
		if err := v.destroyVRI(a); err == nil {
			t.Error("second destroyVRI of the same VRI succeeded")
		}
	}
	if _, err := l.retire(v, a, migration{kind: MigrateDrain}); err != nil {
		t.Fatal(err)
	}
	if s := a.State(); s != VRIStopped {
		t.Fatalf("state after drain = %v, want stopped", s)
	}
	// Every edge out of Stopped is illegal.
	if a.beginDrain() || a.markRunning() || a.markStopped() {
		t.Error("transition out of Stopped applied")
	}
	for s, want := range map[VRIState]string{
		VRIStarting: "starting", VRIRunning: "running",
		VRIDraining: "draining", VRIStopped: "stopped", VRIState(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("VRIState(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestDestroyWithBackedUpQueueConservesFrames is the regression test for the
// old drop-on-destroy teardown: destroy a VRI whose input queue is backed up
// and prove every queued frame is handed to the survivor (or released under a
// named counter) and the pool returns to zero outstanding buffers.
func TestDestroyWithBackedUpQueueConservesFrames(t *testing.T) {
	p := pool.NewWithOptions(pool.Options{Poison: true})
	clock := &fakeClock{}
	l, v, ca := newPooledLVRM(t, p, clock, 2)

	const n = 12
	proto := frameFrom(t, "10.1.0.1", "10.2.0.9")
	for i := 0; i < n; i++ {
		if !dispatchOne(l, p.Copy(proto)) {
			t.Fatalf("dispatch %d rejected", i)
		}
	}
	// Both queues are backed up (nothing has stepped). Record the depth per
	// core so we know how much residue the destroyed instance held.
	depth := map[int]int{}
	for _, a := range v.VRIs() {
		depth[a.Core] = a.Data.In.Len()
	}

	a, err := l.shrinkVR(v)
	if err != nil {
		t.Fatal(err)
	}
	if s := a.State(); s != VRIStopped {
		t.Fatalf("destroyed VRI state = %v, want stopped", s)
	}
	queued := int64(depth[a.Core])
	if queued == 0 {
		t.Fatal("test is vacuous: destroyed VRI had an empty queue")
	}
	d, migrated := v.DrainStats(), v.Migrations().FramesMoved
	if migrated+d.Dropped != queued {
		t.Errorf("drain accounted %d+%d frames, destroyed queue held %d",
			migrated, d.Dropped, queued)
	}
	if migrated == 0 {
		t.Error("no frames migrated despite a live survivor")
	}
	if r := v.Retired(); r.VRIs != 1 {
		t.Errorf("retired VRIs = %d, want 1", r.VRIs)
	}

	// The survivor finishes the migrated residue; then nothing may be left
	// checked out of the pool.
	runToQuiescence(t, l, clock, ca)
	st := l.Stats()
	if got := st.Sent + st.SendErrors + d.Dropped; got != n {
		t.Errorf("sent %d + sendErrs %d + drainDropped %d = %d, want %d",
			st.Sent, st.SendErrors, d.Dropped, got, n)
	}
	if ps := p.Stats(); ps.Outstanding != 0 {
		t.Errorf("pool outstanding = %d after destroy+drain, want 0", ps.Outstanding)
	}
}

// TestDestroyWithoutSurvivorReleasesCounted destroys the last VRI: with
// nowhere to migrate, the residue must be released back to the pool under the
// Dropped counter — not leaked.
func TestDestroyWithoutSurvivorReleasesCounted(t *testing.T) {
	p := pool.NewWithOptions(pool.Options{Poison: true})
	clock := &fakeClock{}
	l, v, _ := newPooledLVRM(t, p, clock, 1)

	const n = 8
	proto := frameFrom(t, "10.1.0.1", "10.2.0.9")
	for i := 0; i < n; i++ {
		if !dispatchOne(l, p.Copy(proto)) {
			t.Fatalf("dispatch %d rejected", i)
		}
	}
	if _, err := l.shrinkVR(v); err != nil {
		t.Fatal(err)
	}
	if d, m := v.DrainStats(), v.Migrations(); d.Dropped != n || m.FramesMoved != 0 {
		t.Errorf("drain stats = %+v, migrations = %+v, want %d dropped and 0 migrated", d, m, n)
	}
	if st := l.Stats(); st.DrainDropped != n {
		t.Errorf("Stats.DrainDropped = %d, want %d", st.DrainDropped, n)
	}
	if ps := p.Stats(); ps.Outstanding != 0 {
		t.Errorf("pool outstanding = %d after last-VRI destroy, want 0", ps.Outstanding)
	}
	if v.Cores() != 0 {
		t.Errorf("VR cores = %d after shrinking to zero", v.Cores())
	}
}

// TestStopWithinDrainsCleanly proves the graceful path: a backlogged live
// runtime drains within the deadline, reports clean, leaves every queue
// empty, and can be restarted afterwards.
func TestStopWithinDrainsCleanly(t *testing.T) {
	rt, ca := startLiveLVRM(t, 2)
	l := rt.LVRM()
	const n = 500
	for i := 0; i < n; i++ {
		ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
	}
	waitFor(t, 10*time.Second, func() bool { return l.Stats().Received == n })

	if !rt.StopWithin(10 * time.Second) {
		t.Fatal("StopWithin reported dirty on a drainable backlog")
	}
	if !rt.quiesced() {
		t.Error("queues not empty after clean StopWithin")
	}
	got := 0
	for {
		select {
		case <-ca.TX:
			got++
			continue
		default:
		}
		break
	}
	st := l.Stats()
	if int64(got) != st.Sent {
		t.Errorf("TX delivered %d frames, Stats.Sent = %d", got, st.Sent)
	}
	if st.Received != st.Sent+st.SendErrors {
		t.Errorf("conservation after drain: %+v", st)
	}

	// The VRIs stayed Running, so the runtime restarts.
	rt.Start()
	ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
	select {
	case <-ca.TX:
	case <-time.After(10 * time.Second):
		t.Fatal("no forwarding after restart from StopWithin")
	}
}

// TestStopWithinNotStarted pins the trivial case: a runtime that is not
// running has nothing in flight and drains clean by definition.
func TestStopWithinNotStarted(t *testing.T) {
	clock := &fakeClock{}
	l, _, _ := newPooledLVRM(t, nil, clock, 1)
	rt := NewRuntime(l)
	if !rt.StopWithin(time.Second) {
		t.Error("StopWithin on a stopped runtime reported dirty")
	}
}

// slowEngine delays every frame, making a backlog undrainable within a short
// deadline.
type slowEngine struct{ inner vr.Engine }

func (s slowEngine) Process(f *packet.Frame) (time.Duration, error) {
	time.Sleep(2 * time.Millisecond)
	return s.inner.Process(f)
}
func (s slowEngine) Name() string { return "slow-" + s.inner.Name() }

// TestStopWithinTimeoutReportsDirty proves the bounded path: when the backlog
// cannot drain before the deadline, StopWithin returns false and the residue
// stays queued (for the caller — lvrmd — to account and force-release).
func TestStopWithinTimeoutReportsDirty(t *testing.T) {
	ca := netio.NewChanAdapter(1024)
	l, err := New(Config{Adapter: ca, Clock: WallClock})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	base := cfg.Engine
	cfg.Engine = func() (vr.Engine, error) {
		e, err := base()
		return slowEngine{inner: e}, err
	}
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	// 64 frames at 2ms each is a ~128ms backlog; a 2ms deadline cannot win.
	for i := 0; i < 64; i++ {
		ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
	}
	waitFor(t, 10*time.Second, func() bool { return v.Dispatched() >= 32 })
	if rt.StopWithin(2 * time.Millisecond) {
		t.Fatal("StopWithin reported clean against an undrainable backlog")
	}
	if rt.quiesced() {
		t.Error("no residue left after reported-dirty stop")
	}
}

// TestRuntimeStopConcurrent pins the stop path against racing callers: N
// simultaneous Stops (as a signal handler racing a deferred shutdown would
// issue) must not panic on a double channel close.
func TestRuntimeStopConcurrent(t *testing.T) {
	rt, _ := startLiveLVRM(t, 2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Stop()
		}()
	}
	wg.Wait()
}

// churnPolicy alternates grow and shrink so the allocator — running on the
// monitor goroutine via MaybeAllocate, exactly like production — continuously
// spawns and destroys VRIs under live traffic.
type churnPolicy struct{ calls atomic.Int64 }

func (p *churnPolicy) Decide(s alloc.Snapshot) alloc.Decision {
	n := p.calls.Add(1)
	switch {
	case s.Cores <= 1:
		return alloc.Grow
	case s.Cores >= 3 || s.FreeCores == 0:
		return alloc.Shrink
	case n%2 == 0:
		return alloc.Grow
	default:
		return alloc.Shrink
	}
}
func (p *churnPolicy) Name() string { return "churn-test" }

// TestChurnConservationUnderLiveTraffic is the soak test for the lifecycle:
// VRIs spawn and drain continuously under live flow-sharded traffic with a
// poisoned pool, and at the end every received frame is accounted for —
// received equals relayed plus every named drop counter — with zero buffers
// left checked out of the pool. Any use-after-release along a teardown path
// trips the poison checks; any unaccounted frame breaks the sum or the
// outstanding count.
func TestChurnConservationUnderLiveTraffic(t *testing.T) {
	p := pool.NewWithOptions(pool.Options{Poison: true})
	ca := netio.NewChanAdapter(4096)
	l, err := New(Config{
		Adapter: ca, Clock: WallClock, FramePool: p,
		FlowShards: 8, FlowTableCap: 4096,
		AllocPeriod: 200 * time.Microsecond,
		Obs:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.InitialVRIs = 2
	cfg.MaxVRIs = 3
	cfg.Policy = &churnPolicy{}
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	// Drain TX concurrently so the relay path never wedges on a full ring.
	var txGot int64
	stopTx := make(chan struct{})
	txDone := make(chan struct{})
	go func() {
		defer close(txDone)
		for {
			select {
			case f := <-ca.TX:
				f.Release()
				txGot++
			case <-stopTx:
				return
			}
		}
	}()

	// Feed flow traffic in bursts with idle gaps, so the monitor's allocation
	// pass (which runs only on idle polls) gets to churn.
	protos := make([]*packet.Frame, 32)
	for i := range protos {
		protos[i] = flowFrame(t, i)
	}
	fed := int64(0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && l.Stats().VRIsRetired < 25 {
		for i := 0; i < 64; i++ {
			ca.RX <- p.Copy(protos[fed%int64(len(protos))])
			fed++
		}
		time.Sleep(200 * time.Microsecond)
	}
	retired := l.Stats().VRIsRetired
	if retired == 0 {
		t.Fatal("soak ran with zero VRI destroys: no churn happened")
	}

	// Let the monitor finish ingesting, then drain gracefully.
	waitFor(t, 10*time.Second, func() bool { return l.Stats().Received == fed })
	if !rt.StopWithin(10 * time.Second) {
		t.Fatal("StopWithin reported dirty after churn soak")
	}
	close(stopTx)
	<-txDone
	for {
		select {
		case f := <-ca.TX:
			f.Release()
			txGot++
			continue
		default:
		}
		break
	}

	// Frame conservation: every ingested frame is in exactly one ledger
	// bucket, and after the quiesce none is still in flight.
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
	st := l.Ledger()
	d, m := v.DrainStats(), v.Migrations()
	if txGot != st.Sent {
		t.Errorf("TX delivered %d frames, Stats.Sent = %d", txGot, st.Sent)
	}
	if ps := p.Stats(); ps.Outstanding != 0 {
		t.Errorf("pool outstanding = %d after churn soak, want 0 (leak)", ps.Outstanding)
	}
	lat := summarize(l.ins.drainDur)
	t.Logf("soak: fed=%d retired=%d migrated=%d drainDropped=%d relayed=%d pins=%d drain_ns{p50=%.0f p99=%.0f}",
		fed, retired, m.FramesMoved, d.Dropped, d.Relayed, m.PinsFlipped, lat.P50, lat.P99)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(time.Millisecond)
	}
}
