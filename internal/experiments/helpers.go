package experiments

import (
	"fmt"
	"strings"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/sim"
	"lvrm/internal/testbed"
	"lvrm/internal/vr"
	"lvrm/internal/vr/click"
)

// Standard testbed addressing (Figure 4.1): senders live in 10.1/16,
// receivers in 10.2/16.
var (
	senderIP1   = packet.MustParseIP("10.1.0.1")
	senderIP2   = packet.MustParseIP("10.1.0.2")
	receiverIP1 = packet.MustParseIP("10.2.0.1")
	receiverIP2 = packet.MustParseIP("10.2.0.2")
)

// standardRoutes is the map file every testbed VR loads.
const standardRoutes = "10.2.0.0/16 if1\n10.1.0.0/16 if0\n"

// mustRoutes parses the standard map file.
func mustRoutes() *route.Table {
	t, err := route.LoadMapFile(strings.NewReader(standardRoutes))
	if err != nil {
		panic(err)
	}
	return t
}

// vrKind selects the hosted VR implementation.
type vrKind int

const (
	vrBasic vrKind = iota // the "C++ VR"
	vrClick               // the Click VR
)

func (k vrKind) String() string {
	if k == vrClick {
		return "click-vr"
	}
	return "c++-vr"
}

// engineFactory builds the packet engine for a VR kind with an optional
// per-frame dummy load (the paper's 1/60 ms) and jitter fraction.
func engineFactory(k vrKind, dummy time.Duration) vr.Factory {
	switch k {
	case vrClick:
		return click.Factory(click.EngineConfig{
			Config:    click.StandardForwarder("10.2.0.0/16", "10.1.0.0/16"),
			DummyLoad: dummy,
		})
	default:
		return vr.BasicFactory(vr.BasicConfig{Routes: mustRoutes(), DummyLoad: dummy})
	}
}

// lvrmOpts parameterize an LVRM gateway for one trial.
type lvrmOpts struct {
	// gw configures the gateway and, through gw.Monitor, the monitor; the
	// builders supply Eng and Out.
	gw     testbed.LVRMGatewayConfig
	vrKind vrKind
	dummy  time.Duration
	// dummy2 overrides the second VR's per-frame dummy load (defaults to
	// dummy), letting Experiment 2e host VRs with different service rates.
	dummy2   time.Duration
	balancer func() balance.Balancer // fresh per trial; nil = JSQ
	policy   func() alloc.Policy     // nil = fixed at initialVRIs
	initial  int                     // initial VRIs (min 1)
	maxVRIs  int
	// queueLimit overrides the links' droptail depth (0 = topology default);
	// the TCP experiments use deeper buffers, as the real switches had.
	queueLimit int
	// secondVR adds a second VR with the same engine; classification
	// splits sender subnets: VR1 owns 10.1.0.1, VR2 owns 10.1.0.2.
	secondVR bool
}

// rig is one assembled testbed instance.
type rig struct {
	eng  *sim.Engine
	topo *testbed.Topology
	gw   testbed.Gateway
	lgw  *testbed.LVRMGateway // nil for simple gateways
}

// buildLVRMRig assembles the Fig 4.1 topology around an LVRM gateway, via
// the shared testbed.NewRig assembly (also used by internal/bench).
func buildLVRMRig(o lvrmOpts) (*rig, error) {
	initial := o.initial
	if initial < 1 {
		initial = 1
	}
	mkVR := func(name string, classify func(*packet.Frame) bool, dummy time.Duration) core.VRConfig {
		cfg := core.VRConfig{
			Name:        name,
			Classify:    classify,
			Engine:      engineFactory(o.vrKind, dummy),
			InitialVRIs: initial,
			MaxVRIs:     o.maxVRIs,
		}
		if o.balancer != nil {
			cfg.Balancer = o.balancer()
		}
		if o.policy != nil {
			cfg.Policy = o.policy()
		}
		return cfg
	}
	var vrs []core.VRConfig
	if !o.secondVR {
		vrs = append(vrs, mkVR("vr1", func(*packet.Frame) bool { return true }, o.dummy))
	} else {
		dummy2 := o.dummy2
		if dummy2 == 0 {
			dummy2 = o.dummy
		}
		bySrc := func(ip packet.IP) func(*packet.Frame) bool {
			return func(f *packet.Frame) bool {
				h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
				if err != nil {
					return false
				}
				// Forward direction keys on the source host;
				// reverse direction (replies) on the destination.
				return h.Src == ip || h.Dst == ip
			}
		}
		vrs = append(vrs,
			mkVR("vr1", bySrc(senderIP1), o.dummy),
			mkVR("vr2", bySrc(senderIP2), dummy2))
	}
	tr, err := testbed.NewRig(testbed.RigOpts{Gateway: o.gw, QueueLimit: o.queueLimit, VRs: vrs})
	if err != nil {
		return nil, err
	}
	return &rig{eng: tr.Eng, topo: tr.Topo, gw: tr.Topo.GW, lgw: tr.GW}, nil
}

// bareLVRM is an LVRM gateway with no network attached: frames go straight
// from the caller to Arrive and from the gateway to the out callback, the
// configuration of Experiments 1c and 1d ("with LVRM only").
type bareLVRM struct {
	eng *sim.Engine
	gw  *testbed.LVRMGateway
}

// buildBareLVRM constructs an LVRM gateway whose output interface calls out
// directly (typically a counter or a discard).
func buildBareLVRM(o lvrmOpts, out func(*packet.Frame, int)) (*bareLVRM, error) {
	eng := sim.New()
	o.gw.Eng, o.gw.Out = eng, out
	gw, err := testbed.NewLVRMGateway(o.gw)
	if err != nil {
		return nil, err
	}
	initial := o.initial
	if initial < 1 {
		initial = 1
	}
	if _, err := gw.AddVR(core.VRConfig{
		Name:        "vr1",
		Classify:    func(*packet.Frame) bool { return true },
		Engine:      engineFactory(o.vrKind, o.dummy),
		InitialVRIs: initial,
	}); err != nil {
		return nil, err
	}
	return &bareLVRM{eng: eng, gw: gw}, nil
}

// buildSimpleRig assembles the topology around a native/hypervisor gateway.
func buildSimpleRig(kind testbed.Kind) (*rig, error) {
	return buildSimpleRigQ(kind, 0)
}

// buildSimpleRigQ is buildSimpleRig with an explicit link queue depth.
func buildSimpleRigQ(kind testbed.Kind, queueLimit int) (*rig, error) {
	eng := sim.New()
	r := &rig{eng: eng}
	routes := mustRoutes()
	topo, err := testbed.NewTopology(eng, testbed.TopologyConfig{QueueLimit: queueLimit}, func(out func(*packet.Frame, int)) (testbed.Gateway, error) {
		routeFn := func(dst packet.IP) int {
			e, err := routes.Lookup(dst)
			if err != nil {
				return -1
			}
			return e.OutIf
		}
		return testbed.NewSimpleGateway(eng, kind, routeFn, out), nil
	})
	if err != nil {
		return nil, err
	}
	r.topo = topo
	r.gw = topo.GW
	return r, nil
}

// mechanism is one column of Experiment 1a/1b: either a simple gateway kind
// or an LVRM variant.
type mechanism struct {
	label  string
	simple bool
	kind   testbed.Kind
	opts   lvrmOpts
}

// exp1Mechanisms lists the Figure 4.2/4.4 data series.
func exp1Mechanisms() []mechanism {
	return []mechanism{
		{label: "native-linux", simple: true, kind: testbed.NativeLinux},
		{label: "lvrm-c++-rawsocket", opts: lvrmOpts{gw: testbed.LVRMGatewayConfig{Mechanism: netio.RawSocket}, vrKind: vrBasic}},
		{label: "lvrm-c++-pfring", opts: lvrmOpts{gw: testbed.LVRMGatewayConfig{Mechanism: netio.PFRing}, vrKind: vrBasic}},
		{label: "lvrm-click-pfring", opts: lvrmOpts{gw: testbed.LVRMGatewayConfig{Mechanism: netio.PFRing}, vrKind: vrClick}},
		{label: "vmware-server", simple: true, kind: testbed.VMwareServer},
		{label: "qemu-kvm", simple: true, kind: testbed.QEMUKVM},
	}
}

func (m mechanism) build() (*rig, error) {
	if m.simple {
		return buildSimpleRig(m.kind)
	}
	return buildLVRMRig(m.opts)
}

// udpTrial returns a TrialFunc that builds a fresh rig per offered rate,
// splits the load over the two senders (capped per host), runs for dur and
// reports sent/received frames. Warm-up frames (the first 10% of the run)
// are excluded from neither count — the trial is long enough that the
// transient is negligible at quick scale and invisible at full scale.
func udpTrial(build func() (*rig, error), wireSize int, dur time.Duration) testbed.TrialFunc {
	return func(offeredFPS float64) (int64, int64) {
		r, err := build()
		if err != nil {
			panic(fmt.Sprintf("building trial rig: %v", err))
		}
		received := int64(0)
		r.topo.OnReceiverSide = func(*packet.Frame) { received++ }
		perSender := offeredFPS / 2
		if perSender > testbed.MaxSenderFPS {
			perSender = testbed.MaxSenderFPS
		}
		senders := []*trafficSender{
			newSender("S1", senderIP1, receiverIP1, wireSize, perSender, r),
			newSender("S2", senderIP2, receiverIP2, wireSize, perSender, r),
		}
		for _, s := range senders {
			s.start()
		}
		r.eng.Run(dur)
		sent := int64(0)
		for _, s := range senders {
			sent += s.sent()
		}
		return sent, received
	}
}

// measureDeliveredFPS runs one rig at a fixed offered rate and returns the
// delivered frame rate (used where the paper reports throughput under a
// fixed offered load rather than an achievable-rate search).
func measureDeliveredFPS(build func() (*rig, error), wireSize int, offered float64, dur time.Duration) float64 {
	_, recv := udpTrial(build, wireSize, dur)(offered)
	return float64(recv) / dur.Seconds()
}
