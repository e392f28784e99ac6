package bench

import (
	"fmt"
	"sort"
	"time"

	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/rib"
	"lvrm/internal/testbed"
	"lvrm/internal/traffic"
	"lvrm/internal/vr"
)

// routeChurn runs a BGP-flap-style route-event storm against the RIB while
// the hosted VR forwards at a high sustained rate through the epoch-swapped
// FIB. The control plane applies thousands of updates per second during the
// middle half of the run — announcing and withdrawing /24 more-specifics
// under a stable /16 covering route, so no frame is ever unroutable — and
// the measure of merit is what that convergence does to forwarding latency:
// churn_p99_jitter_us is the p99−p50 spread of per-frame delivery latency
// during the churn window. A lock on the FIB read path, or a publish that
// stalls readers, shows up here directly; the pre- and post-window spreads
// ride along as the quiet-baseline comparison.
func routeChurn() Scenario {
	const (
		offeredFPS    = 100000 // ~83% of the two VRIs' combined capacity
		churnRate     = 5000.0 // route events per second during the window
		churnPrefixes = 64
		flushPeriod   = time.Millisecond // RIB publish pacing
		vris          = 2
	)
	return Scenario{
		Name:    "route-churn",
		Title:   "BGP-flap churn through the epoch-swapped FIB under line-rate forwarding",
		Primary: "churn_p99_jitter_us",
		Better:  "lower",
		Configure: func(c Config) map[string]float64 {
			return map[string]float64{
				"duration_s":     c.Duration().Seconds(),
				"offered_fps":    offeredFPS,
				"churn_rate":     churnRate,
				"churn_prefixes": churnPrefixes,
				"flush_ms":       flushPeriod.Seconds() * 1000,
				"vris":           vris,
			}
		},
		Run: func(c Config) (Metrics, error) {
			dur := c.Duration()
			churnStart, churnEnd := dur/4, 3*dur/4

			// The RIB starts with the bench's standard static routes; the
			// churn trace then flaps /24s under the 10.2/16 covering route.
			r := rib.New(rib.Options{MaxBatch: 64})
			for _, ev := range []rib.Event{
				{Prefix: packet.MustParseIP("10.1.0.0"), Bits: 16, OutIf: 0},
				{Prefix: packet.MustParseIP("10.2.0.0"), Bits: 16, OutIf: 1},
			} {
				if err := r.Apply(ev); err != nil {
					return nil, err
				}
			}
			r.Publish()

			rig, err := testbed.NewRig(testbed.RigOpts{
				Gateway: testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Seed: c.Seed},
				VRs: []core.VRConfig{{
					Name:        "vr1",
					SrcPrefix:   packet.MustParseIP("10.1.0.0"),
					SrcBits:     16,
					Engine:      vr.BasicFactory(vr.BasicConfig{FIB: r.FIB(), DummyLoad: perVRIDummy}),
					InitialVRIs: vris,
				}},
			})
			if err != nil {
				return nil, err
			}

			// Per-frame latency by IPv4 ID: the sender stamps ID with its
			// sequence number, the emit wrapper records virtual send time,
			// and the receiver classifies each delivery into the pre/churn/
			// post window by when it was SENT (wrap at 64Ki is harmless —
			// in-flight time is microseconds, ID reuse is ~0.65 s apart).
			var sendNs [65536]int64
			var pre, mid, post []float64
			delivered := int64(0)
			rig.Topo.OnReceiverSide = func(f *packet.Frame) {
				delivered++
				h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
				if err != nil {
					return
				}
				s := sendNs[h.ID]
				lat := float64(rig.Eng.Now() - s)
				switch at := time.Duration(s); {
				case at < churnStart:
					pre = append(pre, lat)
				case at < churnEnd:
					mid = append(mid, lat)
				default:
					post = append(post, lat)
				}
			}
			sender := &traffic.UDPSender{
				Name: "load", Src: benchSender1, Dst: benchReceiver,
				SrcPort: 5000, DstPort: 9, Flows: 16,
				Profile: traffic.ConstantProfile(offeredFPS),
				Jitter:  0.1, Seed: c.Seed,
				Emit: func(f *packet.Frame) {
					if h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:]); err == nil {
						sendNs[h.ID] = rig.Eng.Now()
					}
					rig.Topo.SendFromSender(f)
				},
			}
			if err := sender.Start(rig.Eng); err != nil {
				return nil, err
			}

			// The churn feed: a deterministic flap trace applied on schedule
			// during [D/4, 3D/4), batch-published by the RIB (MaxBatch) with
			// a periodic flush so partial batches never linger.
			trace := rib.GenerateChurn(rib.ChurnOpts{
				Seed:     c.Seed + 2,
				Duration: churnEnd - churnStart,
				Rate:     churnRate,
				Prefixes: churnPrefixes,
				OutIf:    1,
			})
			for _, te := range trace {
				ev := te.Ev
				rig.Eng.Schedule(churnStart+te.At, func() { _ = r.Apply(ev) })
			}
			rig.Eng.Every(churnStart, flushPeriod, func() { r.Publish() })

			rig.Eng.Run(dur)

			// Convergence sanity: the feed must have run at the promised
			// rate, the FIB must actually have swapped generations, and no
			// frame may have blackholed while routes flapped (the covering
			// /16 makes every destination routable at every instant).
			st := r.Stats()
			applied := st.Updates + st.Withdrawals - 2 // minus the two seed routes
			updatesPerS := float64(applied) / (churnEnd - churnStart).Seconds()
			if updatesPerS < 1000 {
				return nil, fmt.Errorf("bench: route-churn applied only %.0f updates/s, want >= 1000", updatesPerS)
			}
			if st.Generation < 2 {
				return nil, fmt.Errorf("bench: FIB generation never advanced past the seed publish (gen %d)", st.Generation)
			}
			var engineDrops int64
			for _, a := range rig.GW.LVRM().VRs()[0].VRIs() {
				if b, ok := a.Engine.(*vr.Basic); ok {
					_, d := b.Stats()
					engineDrops += d
				}
			}
			if engineDrops > 0 {
				return nil, fmt.Errorf("bench: %d frames blackholed during route churn", engineDrops)
			}

			m := Metrics{
				"churn_p99_jitter_us": p99JitterUS(mid),
				"pre_p99_jitter_us":   p99JitterUS(pre),
				"post_p99_jitter_us":  p99JitterUS(post),
				"churn_p50_us":        percentileUS(mid, 0.50),
				"churn_p99_us":        percentileUS(mid, 0.99),
				"delivered_kfps":      kfps(delivered, dur),
				"delivered_ratio":     ratio(delivered, sender.Sent()),
				"updates_per_s":       updatesPerS,
				"fib_generations":     float64(st.Generation),
				"rib_publishes":       float64(st.Publishes),
			}
			return m, nil
		},
	}
}

// p99JitterUS is the p99−p50 spread of a latency sample set, in µs. The
// input need not be sorted; it is sorted in place.
func p99JitterUS(lat []float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Float64s(lat)
	return (percentile(lat, 0.99) - percentile(lat, 0.50)) / 1e3
}

// percentileUS reads the p-quantile of a latency sample set in µs, sorting
// the input in place.
func percentileUS(lat []float64, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Float64s(lat)
	return percentile(lat, p) / 1e3
}
