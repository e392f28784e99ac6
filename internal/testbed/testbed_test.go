package testbed

import (
	"strings"
	"testing"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/sim"
	"lvrm/internal/traffic"
	"lvrm/internal/vr"
)

func TestCoreServerSerializes(t *testing.T) {
	eng := sim.New()
	c := NewCoreServer(eng, 0)
	var done []int64
	c.Exec(10*time.Microsecond, User, func() { done = append(done, eng.Now()) })
	c.Exec(10*time.Microsecond, System, func() { done = append(done, eng.Now()) })
	eng.Run(time.Second)
	if len(done) != 2 {
		t.Fatalf("tasks run = %d", len(done))
	}
	if done[0] != int64(10*time.Microsecond) || done[1] != int64(20*time.Microsecond) {
		t.Errorf("completion times = %v", done)
	}
	if c.BusyTime(User) != 10*time.Microsecond || c.BusyTime(System) != 10*time.Microsecond {
		t.Errorf("accounts = %v/%v", c.BusyTime(User), c.BusyTime(System))
	}
	if c.TotalBusy() != 20*time.Microsecond || c.Tasks() != 2 {
		t.Errorf("TotalBusy=%v Tasks=%d", c.TotalBusy(), c.Tasks())
	}
	if u := c.Utilization(User, time.Millisecond); u != 0.01 {
		t.Errorf("Utilization = %v", u)
	}
}

func TestCoreServerQueueDelay(t *testing.T) {
	eng := sim.New()
	c := NewCoreServer(eng, 0)
	c.Exec(100*time.Microsecond, User, nil)
	if d := c.QueueDelay(); d != 100*time.Microsecond {
		t.Errorf("QueueDelay = %v", d)
	}
	eng.Run(time.Millisecond)
	if d := c.QueueDelay(); d != 0 {
		t.Errorf("QueueDelay after drain = %v", d)
	}
}

func TestCPUAccountString(t *testing.T) {
	if User.String() != "us" || System.String() != "sy" || SoftIRQ.String() != "si" || CPUAccount(9).String() != "??" {
		t.Error("account labels wrong")
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.New()
	var arrivals []int64
	l := NewLink(eng, 0, 0, func(f *packet.Frame) { arrivals = append(arrivals, eng.Now()) })
	f, _ := packet.BuildUDP(packet.UDPBuildOpts{WireSize: packet.MinWireSize})
	l.Send(f)
	l.Send(f.Clone())
	eng.Run(time.Second)
	// 84 wire bytes at 1 Gbps = 672 ns each, back to back.
	if arrivals[0] != 672 || arrivals[1] != 1344 {
		t.Errorf("arrivals = %v, want [672 1344]", arrivals)
	}
	if got := l.BytesSent(); got != 168 {
		t.Errorf("BytesSent = %d", got)
	}
}

func TestLinkRuntPadding(t *testing.T) {
	eng := sim.New()
	var at int64
	l := NewLink(eng, 0, 0, func(*packet.Frame) { at = eng.Now() })
	// A 54-byte TCP ACK occupies a full minimum slot on the wire.
	ack, _ := packet.BuildTCP(packet.TCPBuildOpts{Hdr: packet.TCPHeader{}})
	l.Send(ack)
	eng.Run(time.Second)
	if at != 672 {
		t.Errorf("runt arrival = %d, want 672 (padded to 84 wire bytes)", at)
	}
}

func TestLinkDroptail(t *testing.T) {
	eng := sim.New()
	n := 0
	l := NewLink(eng, 0, 2, func(*packet.Frame) { n++ })
	f, _ := packet.BuildUDP(packet.UDPBuildOpts{WireSize: packet.MinWireSize})
	okCount := 0
	for i := 0; i < 5; i++ {
		if l.Send(f.Clone()) {
			okCount++
		}
	}
	eng.Run(time.Second)
	sent, dropped := l.Stats()
	if okCount != 2 || sent != 2 || dropped != 3 || n != 2 {
		t.Errorf("ok=%d sent=%d dropped=%d delivered=%d", okCount, sent, dropped, n)
	}
	if l.Queued() != 0 {
		t.Errorf("Queued = %d after drain", l.Queued())
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{NativeLinux: "native-linux", VMwareServer: "vmware-server", QEMUKVM: "qemu-kvm", KindLVRM: "lvrm", Kind(9): "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d -> %q", int(k), k.String())
		}
	}
}

// simpleRoute forwards the receiver subnet to if1 and the sender subnet to
// if0 (the standard testbed routing).
func simpleRoute(dst packet.IP) int {
	switch {
	case uint32(dst)>>16 == uint32(packet.IPv4(10, 2, 0, 0))>>16:
		return 1
	case uint32(dst)>>16 == uint32(packet.IPv4(10, 1, 0, 0))>>16:
		return 0
	default:
		return -1
	}
}

func TestSimpleGatewayForwards(t *testing.T) {
	eng := sim.New()
	var out []*packet.Frame
	g := NewSimpleGateway(eng, NativeLinux, simpleRoute, func(f *packet.Frame, outIf int) { out = append(out, f) })
	f, _ := packet.BuildUDP(packet.UDPBuildOpts{
		Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9), WireSize: packet.MinWireSize,
	})
	g.Arrive(f, 0)
	// No-route and TTL-dead frames drop.
	stray, _ := packet.BuildUDP(packet.UDPBuildOpts{Dst: packet.IPv4(192, 0, 2, 1), WireSize: packet.MinWireSize})
	g.Arrive(stray, 0)
	dead, _ := packet.BuildUDP(packet.UDPBuildOpts{Dst: packet.IPv4(10, 2, 0, 9), TTL: 1, WireSize: packet.MinWireSize})
	g.Arrive(dead, 0)
	arp := &packet.Frame{Buf: make([]byte, 60)}
	arp.Buf[12], arp.Buf[13] = 0x08, 0x06
	g.Arrive(arp, 0)
	eng.Run(time.Second)
	if len(out) != 1 || out[0].Out != 1 {
		t.Fatalf("forwarded = %v", out)
	}
	if g.Forwarded() != 1 || g.Dropped() != 3 {
		t.Errorf("counters = %d/%d", g.Forwarded(), g.Dropped())
	}
	if g.Core().BusyTime(SoftIRQ) == 0 {
		t.Error("native forwarding charged no softirq time")
	}
}

func TestHypervisorSlowerThanNative(t *testing.T) {
	// Sanity on the calibrated specs: capacity ordering native > vmware >
	// qemu, and hypervisors add latency.
	n, v, q := SpecFor(NativeLinux), SpecFor(VMwareServer), SpecFor(QEMUKVM)
	if !(n.PerFrame < v.PerFrame && v.PerFrame < q.PerFrame) {
		t.Errorf("per-frame ordering violated: %v %v %v", n.PerFrame, v.PerFrame, q.PerFrame)
	}
	if n.ExtraLatency != 0 || v.ExtraLatency == 0 || q.ExtraLatency <= v.ExtraLatency {
		t.Errorf("latency ordering violated: %v %v %v", n.ExtraLatency, v.ExtraLatency, q.ExtraLatency)
	}
	if (SpecFor(Kind(99)) != SimpleSpec{}) {
		t.Error("unknown kind has a spec")
	}
}

// buildLVRMTopology assembles the standard Fig 4.1 testbed with an LVRM
// gateway hosting one basic VR covering both subnets.
func buildLVRMTopology(t testing.TB, eng *sim.Engine, gwCfg LVRMGatewayConfig, vrCfg core.VRConfig) (*Topology, *LVRMGateway) {
	t.Helper()
	var gw *LVRMGateway
	topo, err := NewTopology(eng, TopologyConfig{}, func(out func(*packet.Frame, int)) (Gateway, error) {
		gwCfg.Eng = eng
		gwCfg.Out = out
		var err error
		gw, err = NewLVRMGateway(gwCfg)
		if err != nil {
			return nil, err
		}
		if _, err := gw.AddVR(vrCfg); err != nil {
			return nil, err
		}
		return gw, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo, gw
}

func basicVRConfig(t testing.TB) core.VRConfig {
	t.Helper()
	tbl, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n10.1.0.0/16 if0\n"))
	if err != nil {
		t.Fatal(err)
	}
	return core.VRConfig{
		Name: "vr1",
		// The VR owns traffic from both subnets so replies flow too.
		Classify: func(f *packet.Frame) bool { return true },
		Engine:   vr.BasicFactory(vr.BasicConfig{Routes: tbl}),
	}
}

func TestLVRMGatewayForwardsUDP(t *testing.T) {
	eng := sim.New()
	topo, gw := buildLVRMTopology(t, eng, LVRMGatewayConfig{Mechanism: netio.PFRing}, basicVRConfig(t))
	received := 0
	topo.OnReceiverSide = func(f *packet.Frame) { received++ }
	sender := &traffic.UDPSender{
		Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9),
		Profile: traffic.ConstantProfile(50000),
		Emit:    topo.SendFromSender,
	}
	if err := sender.Start(eng); err != nil {
		t.Fatal(err)
	}
	eng.Run(200 * time.Millisecond)
	sent := int(sender.Sent())
	if sent < 9900 {
		t.Fatalf("sender generated %d", sent)
	}
	loss := 1 - float64(received)/float64(sent)
	if loss > 0.01 {
		t.Errorf("loss = %.3f at 50 Kfps (well under capacity)", loss)
	}
	st := gw.LVRM().Stats()
	if st.Received == 0 || st.Sent == 0 {
		t.Errorf("LVRM stats = %+v", st)
	}
	if gw.MonitorCore().TotalBusy() == 0 {
		t.Error("monitor core never busy")
	}
}

func TestLVRMGatewayOverloadLoses(t *testing.T) {
	// Offered far above the raw-socket capacity (~230 Kfps): must lose.
	eng := sim.New()
	topo, _ := buildLVRMTopology(t, eng, LVRMGatewayConfig{Mechanism: netio.RawSocket, Monitor: core.Config{DataQueueCap: 256}}, basicVRConfig(t))
	received := 0
	topo.OnReceiverSide = func(*packet.Frame) { received++ }
	sender := &traffic.UDPSender{
		Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9),
		Profile: traffic.ConstantProfile(400000),
		Emit:    topo.SendFromSender,
	}
	sender.Start(eng)
	eng.Run(300 * time.Millisecond)
	rate := float64(received) / 0.3
	if rate > 280000 {
		t.Errorf("raw-socket delivered %.0f fps, above its ~230 Kfps capacity", rate)
	}
	if rate < 150000 {
		t.Errorf("raw-socket delivered only %.0f fps", rate)
	}
}

func TestMechanismThroughputOrdering(t *testing.T) {
	// At 84 B frames, delivered rate under overload: pfring > rawsocket.
	run := func(mech netio.Mechanism) float64 {
		eng := sim.New()
		topo, _ := buildLVRMTopology(t, eng, LVRMGatewayConfig{Mechanism: mech, Monitor: core.Config{DataQueueCap: 256}}, basicVRConfig(t))
		received := 0
		topo.OnReceiverSide = func(*packet.Frame) { received++ }
		s := &traffic.UDPSender{
			Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9),
			Profile: traffic.ConstantProfile(MaxSenderFPS * 2),
			Emit:    topo.SendFromSender,
		}
		s.Start(eng)
		eng.Run(200 * time.Millisecond)
		return float64(received) / 0.2
	}
	pf, raw := run(netio.PFRing), run(netio.RawSocket)
	if pf <= raw*1.5 {
		t.Errorf("pfring %.0f not well above rawsocket %.0f", pf, raw)
	}
}

func TestDynamicAllocationGrowsUnderLoad(t *testing.T) {
	eng := sim.New()
	vrCfg := basicVRConfig(t)
	vrCfg.Policy = mustPolicy(t, "dynamic-fixed:60000")
	// Dummy load 1/60 ms per frame: one VRI serves 60 Kfps.
	tbl, _ := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n10.1.0.0/16 if0\n"))
	vrCfg.Engine = vr.BasicFactory(vr.BasicConfig{Routes: tbl, DummyLoad: time.Second / 60000})
	topo, gw := buildLVRMTopology(t, eng, LVRMGatewayConfig{Mechanism: netio.PFRing, Monitor: core.Config{AllocPeriod: 200 * time.Millisecond}}, vrCfg)
	received := 0
	topo.OnReceiverSide = func(*packet.Frame) { received++ }
	sender := &traffic.UDPSender{
		Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9),
		Profile: traffic.ConstantProfile(150000),
		Emit:    topo.SendFromSender,
	}
	sender.Start(eng)
	eng.Run(3 * time.Second)
	v := gw.LVRM().VRs()[0]
	if v.Cores() != 3 {
		t.Errorf("cores = %d under 150 Kfps with 60 Kfps threshold, want 3", v.Cores())
	}
	events := gw.LVRM().AllocEvents()
	if len(events) < 2 {
		t.Errorf("alloc events = %d", len(events))
	}
	// Near-lossless once scaled: the last second should deliver ~150 Kfps.
	if float64(received) < 0.9*float64(sender.Sent()) {
		t.Errorf("received %d of %d", received, sender.Sent())
	}
}

func mustPolicy(t testing.TB, spec string) alloc.Policy {
	t.Helper()
	p, err := alloc.NewByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAffinityThroughputOrdering(t *testing.T) {
	// Experiment 2a's shape: sibling >= non-sibling > default > same.
	run := func(mode AffinityMode) float64 {
		eng := sim.New()
		topo, _ := buildLVRMTopology(t, eng, LVRMGatewayConfig{
			Mechanism: netio.PFRing, Affinity: mode, Monitor: core.Config{DataQueueCap: 256},
		}, basicVRConfig(t))
		received := 0
		topo.OnReceiverSide = func(*packet.Frame) { received++ }
		s := &traffic.UDPSender{
			Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9),
			Profile: traffic.ConstantProfile(MaxSenderFPS * 2),
			Emit:    topo.SendFromSender,
		}
		s.Start(eng)
		eng.Run(200 * time.Millisecond)
		return float64(received) / 0.2
	}
	sib := run(AffinitySibling)
	non := run(AffinityNonSibling)
	def := run(AffinityOSDefault)
	same := run(AffinitySame)
	if !(sib >= non && non > def && def > same) {
		t.Errorf("affinity ordering violated: sibling=%.0f non=%.0f default=%.0f same=%.0f", sib, non, def, same)
	}
	if same > sib*0.7 {
		t.Errorf("same-core %.0f not clearly below sibling %.0f", same, sib)
	}
}

func TestAchievableThroughputSearch(t *testing.T) {
	// Synthetic trial: capacity exactly 100K fps, 300ms runs.
	trial := func(fps float64) (int64, int64) {
		sent := int64(fps * 0.3)
		capacity := 100000.0
		recv := sent
		if fps > capacity {
			recv = int64(capacity * 0.3)
		}
		return sent, recv
	}
	got := AchievableThroughput(trial, 448000, 10)
	// Accept within 3% of the true capacity (2% loss tolerance widens it).
	if got < 97000 || got > 105000 {
		t.Errorf("search found %.0f, want ~100000", got)
	}
	// Under-capacity ceiling returns the ceiling itself.
	if got := AchievableThroughput(trial, 80000, 8); got != 80000 {
		t.Errorf("ceiling case = %.0f", got)
	}
	// Degenerate trial that never sends.
	zero := func(fps float64) (int64, int64) { return 0, 0 }
	if got := AchievableThroughput(zero, 1000, 4); got != 0 {
		t.Errorf("zero trial = %.0f", got)
	}
}

func TestTopologyReverseDirection(t *testing.T) {
	eng := sim.New()
	topo, _ := buildLVRMTopology(t, eng, LVRMGatewayConfig{Mechanism: netio.PFRing}, basicVRConfig(t))
	backAt := int64(0)
	topo.OnSenderSide = func(f *packet.Frame) { backAt = eng.Now() }
	reply, _ := packet.BuildUDP(packet.UDPBuildOpts{
		Src: packet.IPv4(10, 2, 0, 9), Dst: packet.IPv4(10, 1, 0, 5), WireSize: packet.MinWireSize,
	})
	topo.SendFromReceiver(reply)
	eng.Run(100 * time.Millisecond)
	if backAt == 0 {
		t.Fatal("reverse frame never reached the sender side")
	}
	// The reverse path carries host latency twice plus gateway transit.
	if backAt < int64(2*20*time.Microsecond) {
		t.Errorf("reverse latency %v implausibly small", time.Duration(backAt))
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int64, time.Duration) {
		eng := sim.New()
		topo, gw := buildLVRMTopology(t, eng, LVRMGatewayConfig{
			Mechanism: netio.PFRing, Affinity: AffinityOSDefault, Seed: 42,
		}, basicVRConfig(t))
		received := int64(0)
		topo.OnReceiverSide = func(*packet.Frame) { received++ }
		s := &traffic.UDPSender{
			Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9),
			Profile: traffic.ConstantProfile(300000),
			Emit:    topo.SendFromSender,
		}
		s.Start(eng)
		eng.Run(100 * time.Millisecond)
		return received, gw.MonitorCore().TotalBusy()
	}
	r1, b1 := run()
	r2, b2 := run()
	if r1 != r2 || b1 != b2 {
		t.Errorf("replay diverged: (%d,%v) vs (%d,%v)", r1, b1, r2, b2)
	}
}
