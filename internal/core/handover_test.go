package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/cores"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/vr"
)

// consumers counts what consumes a's queues: its worker goroutine and the
// monitor, each 0 or 1.
func (r *Runtime) consumers(a *VRIAdapter) int {
	r.mu.Lock()
	_, worker := r.workers[a]
	r.mu.Unlock()
	n := 0
	if worker {
		n++
	}
	if a.inline.Load() != nil {
		n++
	}
	return n
}

// auditAdapter is a channel adapter that checks the consumer rule whenever
// the monitor polls it. A poll opens a dispatch burst, and no hand-over is in
// progress there: the hooks run only inside serveRequests and the allocation
// pass, and both have returned by the time the monitor polls again. So every
// live VRI must have exactly one consumer, and that consumer must be the
// monitor exactly when the VRI is its VR's only live instance.
type auditAdapter struct {
	*netio.ChanAdapter
	rt            *Runtime
	checks, fails atomic.Int64
	first         atomic.Pointer[string]
}

func (c *auditAdapter) RecvBatch(out []*packet.Frame) int {
	c.checks.Add(1)
	for _, v := range c.rt.lvrm.VRs() {
		vris := v.VRIs()
		for _, a := range vris {
			n, inline := c.rt.consumers(a), a.inline.Load() != nil
			if n != 1 || inline != (len(vris) == 1) {
				msg := fmt.Sprintf("%s/%d of %d live VRIs: %d consumers, inline %v", v.Name(), a.ID, len(vris), n, inline)
				if c.fails.Add(1) == 1 {
					c.first.Store(&msg)
				}
			}
		}
	}
	return c.ChanAdapter.RecvBatch(out)
}

// targetPolicy grows or shrinks its VR one VRI per pass toward want.
type targetPolicy struct{ want atomic.Int64 }

func (p *targetPolicy) Decide(s alloc.Snapshot) alloc.Decision {
	switch want := int(p.want.Load()); {
	case s.Cores < want:
		return alloc.Grow
	case s.Cores > want:
		return alloc.Shrink
	}
	return alloc.Hold
}

func (p *targetPolicy) Name() string { return "target" }

// gateEngine busy-waits 50 µs per frame while heavy is set, so a test can
// overload a VR and then let it cool down.
type gateEngine struct {
	inner vr.Engine
	heavy *atomic.Bool
}

func (e gateEngine) Process(f *packet.Frame) (time.Duration, error) {
	if e.heavy.Load() {
		for deadline := time.Now().Add(50 * time.Microsecond); time.Now().Before(deadline); {
		}
	}
	return e.inner.Process(f)
}

func (e gateEngine) Name() string { return "gate-" + e.inner.Name() }

// TestConsumerHandOverUnderLiveTraffic drives every transition that moves a
// VRI between the monitor and a worker goroutine under live, sequence-stamped
// flow traffic: a policy grow from 1 to 2 VRIs and shrink back (vr-grow), a
// replica split and fold (vr-split), and repeated live moves of a sole VRI,
// each one 1 → 2 → 1 (vr-move), while control events reach vr-move's VRI from
// vr-ctl, whose two VRIs keep their workers throughout. The audit adapter
// checks the one-consumer rule at every poll. At the end no flow may have been
// reordered, the drain must be clean, the monitor's invariants must hold and
// the pool must be empty. CI runs it under -race at GOMAXPROCS 1 and 2.
func TestConsumerHandOverUnderLiveTraffic(t *testing.T) {
	p := pool.NewWithOptions(pool.Options{Poison: true})
	ca := &auditAdapter{ChanAdapter: netio.NewChanAdapter(4096)}
	l, err := New(Config{
		Adapter: ca, Clock: WallClock, FramePool: p,
		Topology:   cores.Topology{Sockets: 2, CoresPerSocket: 8},
		FlowShards: 8, FlowTableCap: 4096,
		RecvBatch: 16, VRIBatch: 16, RelayBatch: 16,
		SplitFold:   balance.SplitFoldConfig{SplitDepth: 8, Sustain: 2, MinGap: time.Millisecond},
		AllocPeriod: 200 * time.Microsecond,
		Obs:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	ca.rt = rt

	grow := &targetPolicy{}
	grow.want.Store(1)
	var heavy atomic.Bool
	addVR := func(name, subnet string, edit func(*VRConfig)) *VR {
		cfg := vrCfg(t, name, subnet, 16)
		edit(&cfg)
		v, err := l.AddVR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	vGrow := addVR("vr-grow", "10.1.0.0", func(c *VRConfig) { c.Policy = grow })
	vSplit := addVR("vr-split", "10.3.0.0", func(c *VRConfig) {
		c.MaxReplicas = 3
		base := c.Engine
		c.Engine = func() (vr.Engine, error) {
			e, err := base()
			return gateEngine{inner: e, heavy: &heavy}, err
		}
	})
	vMove := addVR("vr-move", "10.4.0.0", func(*VRConfig) {})
	vCtl := addVR("vr-ctl", "10.5.0.0", func(c *VRConfig) { c.InitialVRIs = 2 })
	sender := vCtl.VRIs()[0] // its Control.Out has one producer: the driver below

	var ctlInline atomic.Int64
	rt.ControlHandler = func(v *VR, a *VRIAdapter, _ *ControlEvent) {
		if v == vMove && a.inline.Load() != nil {
			ctlInline.Add(1)
		}
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	// TX drain with per-flow sequence monotonicity: flow = UDP source port,
	// sequence = IPv4 ID, as in the replica soaks.
	const flowsPerVR = 4
	vrs := []*VR{vGrow, vSplit, vMove}
	flows := len(vrs) * flowsPerVR
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
	stopTx, txDone := make(chan struct{}), make(chan struct{})
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

	// One prototype per flow, flowsPerVR flows per VR, in the VR's subnet;
	// sequenced by patching the IPv4 ID on a pooled copy.
	protos := make([]*packet.Frame, flows)
	for fl := range protos {
		src := []byte{1, 3, 4}[fl/flowsPerVR]
		proto, err := packet.BuildUDP(packet.UDPBuildOpts{
			Src: packet.IPv4(10, src, 0, byte(1+fl)), Dst: packet.IPv4(10, 2, 0, 1),
			SrcPort: uint16(1000 + fl), DstPort: 9, WireSize: packet.MinWireSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		protos[fl] = proto
	}
	seq := make([]uint16, flows)
	fed := int64(0)
	feed := func(vrIdx, n int) {
		for i := 0; i < n; i++ {
			fl := vrIdx*flowsPerVR + i%flowsPerVR
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

	// The driver: every millisecond a control event for vr-move's VRI, every
	// third a live move of it, every tenth a flip of vr-grow's target.
	var moves, ctlSent int64
	stopDrive, driveDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(driveDone)
		for tick := 1; ; tick++ {
			select {
			case <-stopDrive:
				return
			case <-time.After(time.Millisecond):
			}
			if vris := vMove.VRIs(); len(vris) == 1 {
				if sender.SendControl(&ControlEvent{DstVR: vMove.ID, DstVRI: vris[0].ID}) {
					ctlSent++
				}
				if tick%3 == 0 {
					if _, err := rt.MoveVRI(vMove.ID, vris[0].ID, -1); err == nil {
						moves++
					}
				}
			}
			if tick%10 == 0 {
				grow.want.Store(3 - grow.want.Load())
			}
		}
	}()

	// Two cycles of vr-split: overload until it splits, then cool down until
	// it folds back to one replica.
	replicas := func() int { n, _, _ := vSplit.Replicas(); return n }
	deadline := time.Now().Add(20 * time.Second)
	for cycle := 0; cycle < 2; cycle++ {
		for _, hot := range []bool{true, false} {
			heavy.Store(hot)
			for until := time.Now().Add(150 * time.Millisecond); time.Now().Before(deadline); {
				feed(0, 8)
				feed(2, 16)
				if hot {
					feed(1, 32)
				} else {
					feed(1, 2)
				}
				time.Sleep(200 * time.Microsecond)
				if time.Now().After(until) && (hot == (replicas() > 1)) {
					break
				}
			}
		}
	}
	close(stopDrive)
	<-driveDone

	waitFor(t, 30*time.Second, func() bool { return l.Stats().Received == fed })
	if !rt.StopWithin(30 * time.Second) {
		t.Fatal("StopWithin reported dirty after the hand-over test")
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

	if n := ca.fails.Load(); n != 0 {
		t.Errorf("%d of %d polls broke the consumer rule; first: %s", n, ca.checks.Load(), *ca.first.Load())
	}
	if ca.checks.Load() == 0 {
		t.Error("the monitor never polled the adapter: nothing was audited")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if st := l.Ledger(); txGot != st.Sent {
		t.Errorf("TX delivered %d frames, Stats.Sent = %d", txGot, st.Sent)
	}
	if reorders != 0 {
		t.Errorf("observed %d intra-flow reorders at TX across consumer hand-overs", reorders)
	}
	if ps := p.Stats(); ps.Outstanding != 0 {
		t.Errorf("pool outstanding = %d after the hand-over test, want 0 (leak)", ps.Outstanding)
	}
	_, splits, folds := vSplit.Replicas()
	if splits == 0 || folds == 0 {
		t.Errorf("vr-split saw %d splits and %d folds, want at least one of each", splits, folds)
	}
	if vGrow.Migrations().Drains == 0 {
		t.Error("vr-grow never shrank from 2 VRIs to 1")
	}
	if moves == 0 {
		t.Error("vr-move was never moved")
	}
	if ctlInline.Load() == 0 {
		t.Errorf("none of %d control events reached ControlHandler on vr-move's inline VRI", ctlSent)
	}
	t.Logf("hand-over (GOMAXPROCS %d): fed=%d polls=%d splits=%d folds=%d grow drains=%d moves=%d ctl=%d/%d inline",
		runtime.GOMAXPROCS(0), fed, ca.checks.Load(), splits, folds, vGrow.Migrations().Drains, moves, ctlInline.Load(), ctlSent)
}
