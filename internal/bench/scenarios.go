package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/core"
	"lvrm/internal/flow"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/testbed"
	"lvrm/internal/traffic"
	"lvrm/internal/vr"
)

// The adversarial scenario matrix. Every scenario runs the same Figure 4.1
// testbed as internal/experiments (testbed.NewRig) but drives workloads the
// paper's evaluation never does: skewed flow mixes, sudden fan-in, garbage
// on the wire, and allocation churn under sustained load. Rigs host the
// basic ("C++") VR with the paper's 1/60 ms dummy load, so one VRI is worth
// ~60 Kfps and contention effects appear at realistic rates.

// Standard addressing: senders in 10.1/16, receivers in 10.2/16, crowd
// peers in a distinct 10.1.4/24 block of the classified subnet.
var (
	benchSender1  = packet.MustParseIP("10.1.0.1")
	benchSender2  = packet.MustParseIP("10.1.0.2")
	benchCrowd    = packet.MustParseIP("10.1.4.0")
	benchReceiver = packet.MustParseIP("10.2.0.1")
)

// perVRIFPS is each VRI's service capacity under the dummy load.
const perVRIFPS = 60000.0

// dummyFor converts a per-VRI service rate into the per-frame dummy cost.
func dummyFor(fps float64) time.Duration {
	return time.Duration(float64(time.Second) / fps)
}

// perVRIDummy is the dummy per-frame cost that yields perVRIFPS.
var perVRIDummy = dummyFor(perVRIFPS)

// benchEngine builds the basic VR engine with the paper's dummy load.
func benchEngine(dummy time.Duration) vr.Factory {
	t, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n10.1.0.0/16 if0\n"))
	if err != nil {
		panic(err)
	}
	return vr.BasicFactory(vr.BasicConfig{Routes: t, DummyLoad: dummy})
}

// benchVR is the subnet-classified VR every scenario hosts: source 10.1/16.
// Malformed frames fail the IPv4 parse inside the subnet match, so a junk
// flood must land in the monitor's unclassified counter.
func benchVR(vris int, policy alloc.Policy) core.VRConfig {
	return core.VRConfig{
		Name:        "vr1",
		SrcPrefix:   packet.MustParseIP("10.1.0.0"),
		SrcBits:     16,
		Engine:      benchEngine(perVRIDummy),
		Policy:      policy,
		InitialVRIs: vris,
	}
}

// deliveredBySrc tallies receiver-side arrivals per source IP.
type deliveredBySrc struct {
	total int64
	bySrc map[packet.IP]int64
	junk  int64 // delivered frames that do not parse as IPv4
}

func (d *deliveredBySrc) observe(f *packet.Frame) {
	d.total++
	h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
	if err != nil || f.EtherType() != packet.EtherTypeIPv4 {
		d.junk++
		return
	}
	if d.bySrc == nil {
		d.bySrc = make(map[packet.IP]int64)
	}
	d.bySrc[h.Src]++
}

// inRange reports src ∈ [base, base+n).
func inRange(src, base packet.IP, n int) bool {
	return uint32(src) >= uint32(base) && uint32(src) < uint32(base)+uint32(n)
}

func kfps(frames int64, dur time.Duration) float64 {
	return float64(frames) / dur.Seconds() / 1000
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func init() {
	register(elephantMice())
	register(flashCrowd())
	register(malformedFlood())
	register(churnUnderLoad())
	register(flowScale())
	register(routeChurn())
	register(elephantVR())
	register(liveMigration())
}

// elephantMice runs one un-splittable elephant flow slightly above a single
// VRI's capacity next to a swarm of mice flows. Flow-affine dispatch cannot
// move the backed-up elephant (per-flow ordering), so the measure of merit
// is whether the least-loaded miss path steers the mice away from the
// saturated VRI instead of starving them behind the elephant.
func elephantMice() Scenario {
	const (
		elephantFPS = 72000 // one flow, 1.2× a VRI's capacity
		miceFPS     = 36000
		miceFlows   = 256
	)
	return Scenario{
		Name:    "elephant-mice",
		Title:   "one oversized flow vs a swarm of mice through flow-affine dispatch",
		Primary: "delivered_kfps",
		Better:  "higher",
		Configure: func(c Config) map[string]float64 {
			return map[string]float64{
				"duration_s":   c.Duration().Seconds(),
				"elephant_fps": elephantFPS,
				"mice_fps":     miceFPS,
				"mice_flows":   miceFlows,
				"vris":         2,
				"flow_shards":  8,
			}
		},
		Run: func(c Config) (Metrics, error) {
			dur := c.Duration()
			rig, err := testbed.NewRig(testbed.RigOpts{
				Gateway: testbed.LVRMGatewayConfig{
					Monitor:   core.Config{FlowShards: 8, FlowTableCap: 512},
					Mechanism: netio.PFRing,
					Seed:      c.Seed,
				},
				VRs: []core.VRConfig{benchVR(2, nil)},
			})
			if err != nil {
				return nil, err
			}
			var got deliveredBySrc
			rig.Topo.OnReceiverSide = func(f *packet.Frame) { got.observe(f) }
			elephant := &traffic.UDPSender{
				Name: "elephant", Src: benchSender1, Dst: benchReceiver,
				SrcPort: 5000, DstPort: 9,
				Profile: traffic.ConstantProfile(elephantFPS),
				Poisson: true, Seed: c.Seed,
				Emit: rig.Topo.SendFromSender,
			}
			mice := &traffic.UDPSender{
				Name: "mice", Src: benchSender2, Dst: benchReceiver,
				SrcPort: 6000, DstPort: 9, Flows: miceFlows,
				Profile: traffic.ConstantProfile(miceFPS),
				Poisson: true, Seed: c.Seed + 1,
				Emit: rig.Topo.SendFromSender,
			}
			if err := elephant.Start(rig.Eng); err != nil {
				return nil, err
			}
			if err := mice.Start(rig.Eng); err != nil {
				return nil, err
			}
			rig.Eng.Run(dur)
			v := rig.GW.LVRM().VRs()[0]
			m := Metrics{
				"delivered_kfps":       kfps(got.total, dur),
				"elephant_kfps":        kfps(got.bySrc[benchSender1], dur),
				"mice_kfps":            kfps(got.bySrc[benchSender2], dur),
				"mice_delivered_ratio": ratio(got.bySrc[benchSender2], mice.Sent()),
				"in_drop_ratio":        ratio(v.InDrops(), elephant.Sent()+mice.Sent()),
			}
			return m, nil
		},
	}
}

// flashCrowd holds a steady single-peer baseline while 100 new peers switch
// on at once mid-run — a 100× fan-in spike multiplying the distinct flow
// keys far past the affinity table's capacity. The crowd must be absorbed
// and, crucially, the steady customer's delivery must survive the squeeze:
// with the arena table the excess crowd flows run unpinned (Overflow) while
// every established pin — the steady customer's flows above all — stays put.
func flashCrowd() Scenario {
	const (
		steadyFPS    = 30000
		crowdFPS     = 60000
		crowdPeers   = 100
		crowdFlows   = 2
		flowTableCap = 128 // deliberately smaller than the crowd's flow count
	)
	return Scenario{
		Name:    "flash-crowd",
		Title:   "sudden 100x peer fan-in over an undersized flow-affinity table",
		Primary: "delivered_kfps",
		Better:  "higher",
		Configure: func(c Config) map[string]float64 {
			return map[string]float64{
				"duration_s":     c.Duration().Seconds(),
				"steady_fps":     steadyFPS,
				"crowd_fps":      crowdFPS,
				"crowd_peers":    crowdPeers,
				"flow_table_cap": flowTableCap,
				"vris":           2,
			}
		},
		Run: func(c Config) (Metrics, error) {
			dur := c.Duration()
			rig, err := testbed.NewRig(testbed.RigOpts{
				Gateway: testbed.LVRMGatewayConfig{
					Monitor:   core.Config{FlowShards: 8, FlowTableCap: flowTableCap},
					Mechanism: netio.PFRing,
					Seed:      c.Seed,
				},
				VRs: []core.VRConfig{benchVR(2, nil)},
			})
			if err != nil {
				return nil, err
			}
			var got deliveredBySrc
			rig.Topo.OnReceiverSide = func(f *packet.Frame) { got.observe(f) }
			steady := &traffic.UDPSender{
				Name: "steady", Src: benchSender1, Dst: benchReceiver,
				SrcPort: 5000, DstPort: 9, Flows: 8,
				Profile: traffic.ConstantProfile(steadyFPS),
				Jitter:  0.1, Seed: c.Seed,
				Emit: rig.Topo.SendFromSender,
			}
			// The crowd switches on at D/4 and off at 3D/4.
			crowd := &traffic.UDPSender{
				Name: "crowd", Src: benchCrowd, Dst: benchReceiver,
				SrcPort: 7000, DstPort: 9,
				Flows: crowdFlows, Peers: crowdPeers,
				Profile: traffic.Profile{
					{Start: 0, FPS: 0},
					{Start: dur / 4, FPS: crowdFPS},
					{Start: 3 * dur / 4, FPS: 0},
				},
				Poisson: true, Seed: c.Seed + 1,
				Emit: rig.Topo.SendFromSender,
			}
			if err := steady.Start(rig.Eng); err != nil {
				return nil, err
			}
			if err := crowd.Start(rig.Eng); err != nil {
				return nil, err
			}
			rig.Eng.Run(dur)
			v := rig.GW.LVRM().VRs()[0]
			crowdGot := int64(0)
			for src, n := range got.bySrc {
				if inRange(src, benchCrowd, crowdPeers) {
					crowdGot += n
				}
			}
			m := Metrics{
				"delivered_kfps":         kfps(got.total, dur),
				"steady_kfps":            kfps(got.bySrc[benchSender1], dur),
				"steady_delivered_ratio": ratio(got.bySrc[benchSender1], steady.Sent()),
				"crowd_delivered_ratio":  ratio(crowdGot, crowd.Sent()),
				"in_drop_ratio":          ratio(v.InDrops(), steady.Sent()+crowd.Sent()),
			}
			if fs, ok := v.FlowStats(); ok {
				m["flow_evictions"] = float64(fs.Evictions)
				m["flow_overflows"] = float64(fs.Overflows)
				m["flow_rebalances"] = float64(fs.Rebalances)
			}
			return m, nil
		},
	}
}

// malformedFlood mixes a well-formed sender with an equal-rate flood of
// malformed frames. The decoder (fuzz-hardened since PR 3) must shed every
// junk frame into the unclassified counter — forwarding even one is a
// correctness failure reported as junk_forwarded — while the good traffic's
// delivery rate is the performance casualty being measured.
func malformedFlood() Scenario {
	const (
		goodFPS = 30000
		junkFPS = 30000
	)
	return Scenario{
		Name:    "malformed-flood",
		Title:   "line-rate malformed-frame flood alongside well-formed traffic",
		Primary: "good_kfps",
		Better:  "higher",
		Configure: func(c Config) map[string]float64 {
			return map[string]float64{
				"duration_s": c.Duration().Seconds(),
				"good_fps":   goodFPS,
				"junk_fps":   junkFPS,
				"vris":       2,
			}
		},
		Run: func(c Config) (Metrics, error) {
			dur := c.Duration()
			rig, err := testbed.NewRig(testbed.RigOpts{
				Gateway: testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Seed: c.Seed},
				VRs:     []core.VRConfig{benchVR(2, nil)},
			})
			if err != nil {
				return nil, err
			}
			var got deliveredBySrc
			rig.Topo.OnReceiverSide = func(f *packet.Frame) { got.observe(f) }
			good := &traffic.UDPSender{
				Name: "good", Src: benchSender1, Dst: benchReceiver,
				SrcPort: 5000, DstPort: 9, Flows: 8,
				Profile: traffic.ConstantProfile(goodFPS),
				Jitter:  0.1, Seed: c.Seed,
				Emit: rig.Topo.SendFromSender,
			}
			junk := &traffic.JunkSender{
				Name: "junk", FPS: junkFPS, Seed: c.Seed + 1,
				Emit: rig.Topo.SendFromSender,
			}
			if err := good.Start(rig.Eng); err != nil {
				return nil, err
			}
			if err := junk.Start(rig.Eng); err != nil {
				return nil, err
			}
			rig.Eng.Run(dur)
			stats := rig.GW.LVRM().Stats()
			junkForwarded := got.total - got.bySrc[benchSender1]
			return Metrics{
				"good_kfps":            kfps(got.bySrc[benchSender1], dur),
				"good_delivered_ratio": ratio(got.bySrc[benchSender1], good.Sent()),
				"junk_forwarded":       float64(junkForwarded),
				"junk_dropped_ratio":   ratio(stats.Unclassified, junk.Sent()),
			}, nil
		},
	}
}

// churnUnderLoad drives a dynamic-fixed allocation policy through two full
// load staircases, so VRIs spawn and drain repeatedly while traffic never
// stops — the PR 5 lifecycle (drain, residue migration, flow re-pinning)
// exercised as a steady state rather than a shutdown edge case. Rates and
// thresholds shrink together in quick mode (the staircase is scale-free,
// as in the Experiment 2c methodology).
func churnUnderLoad() Scenario {
	return Scenario{
		Name:    "churn-under-load",
		Title:   "repeated VRI spawn/drain cycles under a sustained load staircase",
		Primary: "delivered_kfps",
		Better:  "higher",
		Configure: func(c Config) map[string]float64 {
			per, dwell := churnScale(c)
			return map[string]float64{
				"per_core_fps": per,
				"dwell_s":      dwell.Seconds(),
				"cycles":       2,
				"peak_cores":   5,
			}
		},
		Run: func(c Config) (Metrics, error) {
			per, dwell := churnScale(c)
			cfg := benchVR(1, alloc.NewDynamicFixed(per))
			cfg.Engine = benchEngine(dummyFor(per))
			rig, err := testbed.NewRig(testbed.RigOpts{
				Gateway: testbed.LVRMGatewayConfig{
					Monitor:   core.Config{AllocPeriod: dwell / 4},
					Mechanism: netio.PFRing,
					Seed:      c.Seed,
				},
				VRs: []core.VRConfig{cfg},
			})
			if err != nil {
				return nil, err
			}
			delivered := int64(0)
			rig.Topo.OnReceiverSide = func(*packet.Frame) { delivered++ }
			// Two up-and-down staircases: 1×..5×threshold and back, twice.
			var profile traffic.Profile
			at := time.Duration(0)
			for cycle := 0; cycle < 2; cycle++ {
				for r := per; r <= 5*per+1e-9; r += per {
					profile = append(profile, traffic.RateStep{Start: at, FPS: r})
					at += dwell
				}
				for r := 4 * per; r >= per-1e-9; r -= per {
					profile = append(profile, traffic.RateStep{Start: at, FPS: r})
					at += dwell
				}
			}
			dur := at + dwell
			sender := &traffic.UDPSender{
				Name: "stair", Src: benchSender1, Dst: benchReceiver,
				SrcPort: 5000, DstPort: 9, Flows: 16,
				Profile: profile,
				Jitter:  0.15, Seed: c.Seed,
				Emit: rig.Topo.SendFromSender,
			}
			if err := sender.Start(rig.Eng); err != nil {
				return nil, err
			}
			rig.Eng.Run(dur)
			stats := rig.GW.LVRM().Stats()
			if stats.VRIsRetired == 0 {
				return nil, fmt.Errorf("bench: churn scenario destroyed no VRIs — the staircase never descended")
			}
			v := rig.GW.LVRM().VRs()[0]
			return Metrics{
				"delivered_kfps":  kfps(delivered, dur),
				"delivered_ratio": ratio(delivered, sender.Sent()),
				"retired_vris":    float64(stats.VRIsRetired),
				"drain_migrated":  float64(v.Migrations().FramesMoved),
				"alloc_events":    float64(stats.AllocationCount),
				"in_drop_ratio":   ratio(v.InDrops(), sender.Sent()),
			}, nil
		},
	}
}

// churnScale returns the staircase's per-core threshold and dwell. Quick
// mode scales the rate (and with it the dummy load) by 0.1 and shortens the
// dwell; the allocation staircase itself is scale-free.
func churnScale(c Config) (perCoreFPS float64, dwell time.Duration) {
	if c.Full {
		return perVRIFPS, 400 * time.Millisecond
	}
	return perVRIFPS / 10, 100 * time.Millisecond
}

// flowScale sweeps the flow-affinity table from 10k to 1M concurrent flows
// and verifies the table's contract at each step: every flow installs and
// stays pinned (the scenario errors on a single overflow or a lost pin), and
// the steady-state hit path allocates nothing. The
// primary metric is pinned_kflows — deterministically 1000 while the table
// holds its capacity promise, so the CI gate trips on any future change that
// stops the table short of a million flows; throughput and allocation figures
// ride along as secondary metrics.
func flowScale() Scenario {
	const (
		shards   = 64
		shardCap = 1 << 16 // 64 shards × 64Ki slots, 32 MiB: 1M flows is 24% load
		vris     = 4
	)
	scales := []int{10_000, 100_000, 1_000_000}
	return Scenario{
		Name:    "flowscale",
		Title:   "10k to 1M concurrent flows through the arena-backed affinity table",
		Primary: "pinned_kflows",
		Better:  "higher",
		Configure: func(c Config) map[string]float64 {
			return map[string]float64{
				"shards":     shards,
				"shard_cap":  shardCap,
				"max_flows":  float64(scales[len(scales)-1]),
				"hit_ops":    float64(flowScaleHitOps(c)),
				"sweep_vris": vris,
			}
		},
		Run: func(c Config) (Metrics, error) {
			maxFlows := scales[len(scales)-1]
			tb := flow.NewTable(shards, shardCap)
			keepAlways := func(int) bool { return true }
			next := int(c.Seed)
			pick := func() int { next++; return next % vris }

			// Distinct nonzero keys from the trial seed (splitmix64), so every
			// trial exercises a different slab layout.
			keys := make([]uint64, maxFlows)
			x := c.Seed
			for i := range keys {
				x += 0x9e3779b97f4a7c15
				z := x
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				z ^= z >> 31
				if z == 0 {
					z = 1
				}
				keys[i] = z
			}

			m := Metrics{}
			installed := 0
			var installDur time.Duration
			for _, scale := range scales {
				start := time.Now()
				for ; installed < scale; installed++ {
					if _, out := tb.Assign(keys[installed], int64(installed), keepAlways, pick); out != flow.Miss {
						return nil, fmt.Errorf("bench: flowscale flow %d installed as %v, want miss", installed, out)
					}
				}
				installDur += time.Since(start)
				if got := tb.Len(); got != scale {
					return nil, fmt.Errorf("bench: flowscale pinned %d flows at the %d step", got, scale)
				}
			}

			// Steady state: hammer the hit path over the established flows and
			// meter heap allocations across it — the hot path must not touch
			// the heap at a million live flows any more than it does at ten.
			hitOps := flowScaleHitOps(c)
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			hitStart := time.Now()
			idx := int(c.Seed)
			for i := 0; i < hitOps; i++ {
				idx = (idx + 40503) % maxFlows // odd stride covers the key set
				if _, out := tb.Assign(keys[idx], int64(i), keepAlways, pick); out != flow.Hit {
					return nil, fmt.Errorf("bench: flowscale steady-state assign of flow %d = %v, want hit", idx, out)
				}
			}
			hitDur := time.Since(hitStart)
			runtime.ReadMemStats(&ms1)

			st := tb.Stats()
			if st.Overflows != 0 {
				return nil, fmt.Errorf("bench: flowscale overflowed %d flows below capacity", st.Overflows)
			}
			m["pinned_kflows"] = float64(tb.Len()) / 1000
			m["assign_mops"] = float64(maxFlows) / installDur.Seconds() / 1e6
			m["hit_mops"] = float64(hitOps) / hitDur.Seconds() / 1e6
			m["hit_allocs_per_frame"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(hitOps)
			return m, nil
		},
	}
}

// flowScaleHitOps is the steady-state hit-phase length: long enough in full
// mode for a clean throughput figure, shorter in quick mode where the CI gate
// only needs the capacity and allocation checks.
func flowScaleHitOps(c Config) int {
	if c.Full {
		return 2_000_000
	}
	return 500_000
}
