package bench

import (
	"fmt"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/testbed"
	"lvrm/internal/traffic"
)

// elephantVR drives one VR at 1.9× a single replica's capacity — an elephant
// VR rather than an elephant flow, with plenty of flows to partition — and
// runs the identical workload three times with MaxReplicas 1, 2 and 4. The
// split/fold controller must notice the backlog, split the VR onto idle
// cores, and later fold back when the load collapses to 20%; the measure of
// merit is replicated_speedup, the plateau throughput at 2 replicas over the
// single-replica ceiling (the ISSUE's ≥ 1.7× bar, enforced here as a hard
// error so the gate cannot silently regress). Each replicated run must also
// be perfectly clean: at least one split AND one fold, zero lost frames in
// any counted bucket, zero residue after the quiet tail, and zero intra-flow
// reordering — the sender stamps the IPv4 ID with its sequence number, so a
// flow's IDs must arrive strictly increasing across every transplant.
func elephantVR() Scenario {
	const (
		loadFactor = 1.9 // offered rate vs one replica's service capacity
		lowFactor  = 0.2 // the fold phase's offered rate
		flows      = 64  // 65536 % flows == 0, so flow index = IPv4 ID % flows
	)
	return Scenario{
		Name:    "elephant-vr",
		Title:   "one overloaded VR split across replica VRIs and folded back",
		Primary: "replicated_speedup",
		Better:  "higher",
		Configure: func(c Config) map[string]float64 {
			per := elephantScale(c)
			return map[string]float64{
				"duration_s":  c.Duration().Seconds(),
				"per_vri_fps": per,
				"load_factor": loadFactor,
				"low_factor":  lowFactor,
				"flows":       flows,
				"replica_set": 3, // sub-runs at MaxReplicas 1, 2, 4
			}
		},
		Run: func(c Config) (Metrics, error) {
			per := elephantScale(c)
			dur := c.Duration()
			single, err := runElephant(c, per, 1, loadFactor, lowFactor, flows)
			if err != nil {
				return nil, err
			}
			dual, err := runElephant(c, per, 2, loadFactor, lowFactor, flows)
			if err != nil {
				return nil, err
			}
			quad, err := runElephant(c, per, 4, loadFactor, lowFactor, flows)
			if err != nil {
				return nil, err
			}
			for _, r := range []*elephantRun{dual, quad} {
				if r.splits < 1 || r.folds < 1 {
					return nil, fmt.Errorf("bench: elephant-vr max-replicas=%d saw splits=%d folds=%d, want both >= 1",
						r.maxReplicas, r.splits, r.folds)
				}
				if r.lost != 0 {
					return nil, fmt.Errorf("bench: elephant-vr max-replicas=%d lost %d frames across split/fold",
						r.maxReplicas, r.lost)
				}
				if r.leftover != 0 {
					return nil, fmt.Errorf("bench: elephant-vr max-replicas=%d left %d frames queued after the quiet tail",
						r.maxReplicas, r.leftover)
				}
			}
			speedup2 := ratio64(dual.plateau, single.plateau)
			speedup4 := ratio64(quad.plateau, single.plateau)
			if speedup2 < 1.7 {
				return nil, fmt.Errorf("bench: elephant-vr speedup at 2 replicas = %.2f, want >= 1.7", speedup2)
			}
			// Monotone within the topology's physics: the deeper replica set
			// spills past the monitor's sibling cores, and the cross-socket
			// relay penalty (600 ns/frame) shaves a few percent off the
			// 4-replica plateau. That is correct model behavior, not a
			// regression — the gate only requires 4 replicas not to collapse
			// below the 2-replica win.
			if speedup4 < 0.92*speedup2 {
				return nil, fmt.Errorf("bench: elephant-vr speedup not monotone: %.2f at 4 replicas vs %.2f at 2",
					speedup4, speedup2)
			}
			return Metrics{
				"replicated_speedup": speedup2,
				"quad_speedup":       speedup4,
				"single_kfps":        kfps(single.plateau, dur/4),
				"dual_kfps":          kfps(dual.plateau, dur/4),
				"quad_kfps":          kfps(quad.plateau, dur/4),
				"dual_splits":        float64(dual.splits),
				"dual_folds":         float64(dual.folds),
				"quad_splits":        float64(quad.splits),
				"quad_folds":         float64(quad.folds),
				"delivered_ratio":    ratio(dual.delivered, dual.sent),
				"reorders":           float64(single.reorders + dual.reorders + quad.reorders),
			}, nil
		},
	}
}

// elephantRun is one sub-run's outcome.
type elephantRun struct {
	maxReplicas int
	plateau     int64 // frames delivered inside the [D/4, D/2) window
	delivered   int64
	sent        int64
	splits      int64
	folds       int64
	lost        int64 // every counted drop bucket, summed
	leftover    int64 // frames still queued on VRIs at the end
	reorders    int64
	unaccounted int64
}

// runElephant runs the elephant workload once at the given replica ceiling.
// All sub-runs share c.Seed, so they process the identical frame schedule.
func runElephant(c Config, per float64, maxReplicas int, loadFactor, lowFactor float64, flows int) (*elephantRun, error) {
	dur := c.Duration()
	// Alloc pacing is wall-fixed (not a fraction of dur): the split must land
	// before the single replica's 4096-deep ring overflows, and the backlog
	// grows at a rate-scaled pace, not a duration-scaled one.
	const allocPeriod = 5 * time.Millisecond
	cfg := core.VRConfig{
		Name:        "vr1",
		SrcPrefix:   packet.MustParseIP("10.1.0.0"),
		SrcBits:     16,
		Engine:      benchEngine(dummyFor(per)),
		InitialVRIs: 1,
	}
	rig, err := testbed.NewRig(testbed.RigOpts{
		Gateway: testbed.LVRMGatewayConfig{
			Monitor: core.Config{
				FlowShards:   8,
				FlowTableCap: 256,
				AllocPeriod:  allocPeriod,
				MaxReplicas:  maxReplicas,
				SplitFold: balance.SplitFoldConfig{
					SplitDepth: 32,
					Sustain:    2,
					MinGap:     allocPeriod,
				},
			},
			Mechanism: netio.PFRing,
			Seed:      c.Seed,
		},
		VRs: []core.VRConfig{cfg},
	})
	if err != nil {
		return nil, err
	}

	r := &elephantRun{maxReplicas: maxReplicas}
	plateauFrom, plateauTo := dur/4, dur/2
	lastID := make([]uint16, flows)
	seen := make([]bool, flows)
	rig.Topo.OnReceiverSide = func(f *packet.Frame) {
		r.delivered++
		now := time.Duration(rig.Eng.Now())
		if now >= plateauFrom && now < plateauTo {
			r.plateau++
		}
		h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
		if err != nil {
			return
		}
		// The sender stamps ID with its sequence number and cycles flows in
		// sequence order, so a flow's IDs step by exactly `flows` mod 2¹⁶; a
		// non-positive signed delta is an intra-flow reorder.
		idx := int(h.ID) % flows
		if seen[idx] && int16(h.ID-lastID[idx]) <= 0 {
			r.reorders++
		}
		seen[idx], lastID[idx] = true, h.ID
	}

	// Load profile: overload until D/2 (forcing splits), 20% until 9D/10
	// (forcing folds), then silence so every queue drains before accounting.
	sender := &traffic.UDPSender{
		Name: "elephant", Src: benchSender1, Dst: benchReceiver,
		SrcPort: 5000, DstPort: 9, Flows: flows,
		Profile: traffic.Profile{
			{Start: 0, FPS: loadFactor * per},
			{Start: dur / 2, FPS: lowFactor * per},
			{Start: 9 * dur / 10, FPS: 0},
		},
		Jitter: 0.1, Seed: c.Seed,
		Emit: rig.Topo.SendFromSender,
	}
	if err := sender.Start(rig.Eng); err != nil {
		return nil, err
	}
	rig.Eng.Run(dur)

	r.sent = sender.Sent()
	v := rig.GW.LVRM().VRs()[0]
	_, r.splits, r.folds = v.Replicas()
	// Gateway-boundary conservation: every frame the monitor received is
	// forwarded, in a counted drop bucket, or still queued — anything else
	// was blackholed by a transplant and fails the run.
	led := rig.GW.LVRM().Ledger()
	r.leftover, r.unaccounted = led.InFlight, led.Residual()
	r.lost = rig.GW.RxDrops() + led.Dropped()
	if r.unaccounted != 0 {
		return nil, fmt.Errorf("bench: elephant-vr max-replicas=%d blackholed %d frames (received=%d sent=%d lost=%d leftover=%d)",
			maxReplicas, r.unaccounted, led.Received, led.Sent, r.lost, r.leftover)
	}
	if r.reorders > 0 {
		return nil, fmt.Errorf("bench: elephant-vr max-replicas=%d reordered %d frames within flows",
			maxReplicas, r.reorders)
	}
	return r, nil
}

// elephantScale is the per-replica service rate: the paper's 60 Kfps in full
// mode, a tenth of it in quick mode (with the dummy load scaled to match, as
// in churnScale, so the split/fold dynamics are identical).
func elephantScale(c Config) float64 {
	if c.Full {
		return perVRIFPS
	}
	return perVRIFPS / 10
}

// ratio64 is ratio for already-summed int64 counts.
func ratio64(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
