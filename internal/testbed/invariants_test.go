package testbed

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/rib"
	"lvrm/internal/route"
	"lvrm/internal/sim"
	"lvrm/internal/traffic"
	"lvrm/internal/vr"
)

// proptestSeedEnv replays one seed of the seeded DES test:
// LVRM_PROPTEST_SEED=17 go test -run TestInvariantsUnderSeededInterleavings ./internal/testbed/
const proptestSeedEnv = "LVRM_PROPTEST_SEED"

// TestInvariantsUnderSeededInterleavings is the first step of ROADMAP item
// 1's harness, scoped to what is deterministic: each seed builds a fresh rig,
// offers it a seeded staircase of 64 sequence-stamped flows, and at seeded
// virtual times fires live moves, forced allocation passes, control-queue
// route updates and RIB publishes into the middle of the traffic. Once the
// senders have stopped and the engine has run dry, the monitor must pass
// core.CheckInvariants, every frame sent must be delivered or in a counted
// drop, and no flow may have been reordered. The run is virtual-time, so a
// failing seed is a unit test: the failure names the seed, and
// LVRM_PROPTEST_SEED replays exactly it.
func TestInvariantsUnderSeededInterleavings(t *testing.T) {
	var seeds []uint64
	if env := os.Getenv(proptestSeedEnv); env != "" {
		seed, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", proptestSeedEnv, env, err)
		}
		seeds = []uint64{seed}
	} else {
		n := 50
		if testing.Short() {
			n = 5
		}
		for seed := uint64(1); seed <= uint64(n); seed++ {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		summary, err := runSeededInterleaving(seed)
		if err != nil {
			t.Errorf("seed %d: %v\n%s\nreplay: %s=%d go test -run %s ./internal/testbed/",
				seed, err, summary, proptestSeedEnv, seed, t.Name())
			continue
		}
		t.Logf("seed %d: %s", seed, summary)
	}
}

// The interleaving rig's scale: each VRI serves perVRI frames/s (the bench
// scenarios' quick-mode rate), senders run for trafficFor, and the seeded
// actions all fire at least actionMargin before the senders stop, so frames
// keep arriving afterwards and the gateway kicks every VRI server — a shadow
// VRI holding staged residue included — at least once more.
const (
	perVRI       = 6000
	trafficFor   = 300 * time.Millisecond
	actionMargin = 10 * time.Millisecond
	flowsPerVR   = 32
)

// runSeededInterleaving runs one seed to quiescence and checks it. The
// summary describes what the seed exercised, pass or fail; two runs of one
// seed must produce the same summary.
func runSeededInterleaving(seed uint64) (summary string, err error) {
	rng := sim.NewRand(seed)
	ip := packet.MustParseIP

	// vr1 is replicated (the monitor-wide MaxReplicas: 3) and forwards
	// against the RIB's FIB; vr2 opts out of replication, grows and shrinks
	// under dynamic-fixed, and forwards against per-VRI static tables that
	// control-queue route updates edit. Both are flow-dispatched. vr2's new
	// and re-balanced flows are placed by the seed's balancer scheme, so the
	// stale-pin re-balance after each grow runs through it.
	r := rib.New(rib.Options{})
	for _, ev := range []rib.Event{
		{Prefix: ip("10.1.0.0"), Bits: 16, OutIf: 0},
		{Prefix: ip("10.2.0.0"), Bits: 16, OutIf: 1},
	} {
		if err := r.Apply(ev); err != nil {
			return "", err
		}
	}
	r.Publish()
	static, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n10.1.0.0/16 if0\n"))
	if err != nil {
		return "", err
	}
	dummy := time.Second / perVRI
	scheme := []string{"jsq", "rr", "random"}[seed%3]
	bal, err := balance.NewByName(scheme, seed)
	if err != nil {
		return "", err
	}

	var rig *Rig
	rig, err = NewRig(RigOpts{
		Gateway: LVRMGatewayConfig{
			Monitor: core.Config{
				FlowShards:   8,
				MaxReplicas:  3,
				DataQueueCap: 256,
				AllocPeriod:  2 * time.Millisecond,
				SplitFold: balance.SplitFoldConfig{
					SplitDepth: 16, Sustain: 2, MinGap: 2 * time.Millisecond,
				},
				RIB: r,
			},
			Mechanism: netio.PFRing,
			Seed:      seed,
			// A route update reaches a VRI as a control event; apply it to
			// that VRI's engine, as the live runtime's RouteSyncHandler does.
			OnControl: func(ev *core.ControlEvent, _ int64) {
				u, err := vr.ParseRouteUpdate(ev.Payload)
				if err != nil {
					return
				}
				for _, a := range rig.GW.LVRM().VRs()[ev.DstVR].VRIs() {
					if a.ID == ev.DstVRI {
						a.Engine.(vr.RouteUpdater).ApplyRouteUpdate(u)
					}
				}
			},
		},
		VRs: []core.VRConfig{
			{
				Name: "replicated", SrcPrefix: ip("10.1.0.0"), SrcBits: 24,
				Engine: vr.BasicFactory(vr.BasicConfig{FIB: r.FIB(), DummyLoad: dummy}),
			},
			{
				Name: "dynamic-fixed", SrcPrefix: ip("10.1.1.0"), SrcBits: 24,
				Engine:      vr.BasicFactory(vr.BasicConfig{Routes: static, DummyLoad: dummy}),
				Policy:      alloc.NewDynamicFixed(perVRI),
				Balancer:    bal,
				MaxVRIs:     3,
				MaxReplicas: 1,
			},
		},
	})
	if err != nil {
		return "", err
	}
	l := rig.GW.LVRM()

	// The receiver: sender s stamps each frame's IPv4 ID with its sequence
	// number and cycles its flows in sequence order, so a flow's IDs step by
	// flowsPerVR mod 2¹⁶; a non-positive signed delta is a reorder.
	var delivered, reorders int64
	var lastID [2][flowsPerVR]uint16
	var seen [2][flowsPerVR]bool
	rig.Topo.OnReceiverSide = func(f *packet.Frame) {
		delivered++
		h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
		if err != nil {
			reorders++ // a forwarded frame the receiver cannot read is as bad
			return
		}
		s, fl := int(h.Src>>8)&1, int(h.ID)%flowsPerVR
		if seen[s][fl] && int16(h.ID-lastID[s][fl]) <= 0 {
			reorders++
		}
		seen[s][fl], lastID[s][fl] = true, h.ID
	}

	// The offered load: per VR, a seeded staircase up past the capacity of
	// three VRIs' worth of cores and back down, so splits, grows, folds and
	// shrinks all have cause to fire.
	senders := make([]*traffic.UDPSender, 2)
	for s := range senders {
		step := perVRI * (0.5 + 0.5*rng.Float64())
		levels := 3 + rng.Intn(3)
		dwell := trafficFor / time.Duration(2*levels-1)
		senders[s] = &traffic.UDPSender{
			Name: fmt.Sprintf("S%d", s+1), Src: packet.IPv4(10, 1, byte(s), 5), Dst: ip("10.2.0.9"),
			SrcPort: 5000, DstPort: 9, Flows: flowsPerVR,
			Profile: traffic.StepProfile(step, step*float64(levels), step, dwell),
			Jitter:  0.2, Seed: seed + uint64(s),
			Emit: rig.Topo.SendFromSender,
		}
		if err := senders[s].Start(rig.Eng); err != nil {
			return "", err
		}
	}
	rig.Eng.Schedule(trafficFor, func() {
		for _, s := range senders {
			s.Stop()
		}
	})

	// The interleaved actions. Each runs inside an engine event, so on the
	// goroutine that dispatches — the serialization every one of them needs.
	// An action the state of the moment refuses (no free core, a move onto
	// the core the VRI already has) is part of the interleaving, not a
	// failure.
	var moves, passes, updates, publishes int
	flap := func() (prefix packet.IP, withdraw bool) {
		return packet.IPv4(10, 2, byte(rng.Intn(8)), 0), rng.Intn(3) == 0
	}
	for n := 8 + rng.Intn(9); n > 0; n-- {
		at := time.Duration(rng.Float64() * float64(trafficFor-actionMargin))
		switch rng.Intn(4) {
		case 0:
			vrID, pick, target := rng.Intn(2), rng.Intn(3), rng.Intn(9)-1
			rig.Eng.Schedule(at, func() {
				vris := l.VRs()[vrID].VRIs()
				if _, err := l.MoveVRI(vrID, vris[pick%len(vris)].ID, target); err == nil {
					moves++
				}
			})
		case 1:
			rig.Eng.Schedule(at, func() { passes += len(l.Allocate(rig.Eng.Now())) })
		case 2:
			prefix, withdraw := flap()
			rig.Eng.Schedule(at, func() {
				updates += l.BroadcastRouteUpdate(l.VRs()[1], vr.RouteUpdate{
					Withdraw: withdraw, Prefix: prefix, Bits: 24, OutIf: 1,
				})
			})
		case 3:
			prefix, withdraw := flap()
			rig.Eng.Schedule(at, func() {
				// Withdrawing a prefix that was never announced is refused.
				if r.Apply(rib.Event{Withdraw: withdraw, Prefix: prefix, Bits: 24, OutIf: 1}) == nil {
					publishes += r.Publish()
				}
			})
		}
	}

	// Run dry: the senders stop themselves and nothing else is periodic.
	rig.Eng.Run(10 * time.Second)

	var sent int64
	for _, s := range senders {
		sent += s.Sent()
	}
	led := l.Ledger()
	_, ingressDrops := rig.Topo.IngressLink().Stats()
	_, egressDrops := rig.Topo.EgressLink().Stats()
	lost := led.Dropped() + ingressDrops + egressDrops + rig.GW.RxDrops()
	var mig core.MigrationTotals
	for _, v := range l.VRs() {
		m := v.Migrations()
		mig.Drains, mig.Splits, mig.Folds, mig.Moves = mig.Drains+m.Drains, mig.Splits+m.Splits, mig.Folds+m.Folds, mig.Moves+m.Moves
		mig.FramesMoved += m.FramesMoved
	}
	fs, _ := l.VRs()[1].FlowStats()
	summary = fmt.Sprintf("balancer=%s (rebalances=%d) sent=%d delivered=%d lost=%d (in_drops=%d) | splits=%d folds=%d drains=%d moves=%d (%d by MoveVRI) frames_moved=%d | forced-pass events=%d route updates=%d fib changes=%d gen=%d",
		scheme, fs.Rebalances, sent, delivered, lost, led.InDrops, mig.Splits, mig.Folds, mig.Drains, mig.Moves, moves, mig.FramesMoved,
		passes, updates, publishes, r.FIB().Generation())

	switch invErr := l.CheckInvariants(); {
	case rig.Eng.Pending() != 0:
		return summary, fmt.Errorf("engine still has %d events pending at the horizon", rig.Eng.Pending())
	case invErr != nil:
		return summary, invErr
	case sent != delivered+lost:
		return summary, fmt.Errorf("sent %d != delivered %d + lost %d: %d frames unaccounted between sender and receiver",
			sent, delivered, lost, sent-delivered-lost)
	case reorders != 0:
		return summary, fmt.Errorf("%d frames arrived out of order within their flow", reorders)
	}
	return summary, nil
}
