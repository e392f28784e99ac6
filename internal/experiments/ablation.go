package experiments

import (
	"fmt"
	"time"

	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/testbed"
	"lvrm/internal/traffic"
)

func init() {
	register("a1", "(ablation)", "Socket adapter ablation: raw socket vs PF_RING 3.7.5- (LVRM 1.0) vs PF_RING (LVRM 1.1)", ablationSocket)
	register("a2", "(ablation)", "JSQ load-estimate freshness ablation: stale vs refreshed queue estimates", ablationEstimate)
}

// ablationSocket isolates the socket adapter's contribution (Section 3.1's
// version history): LVRM 1.0 used PF_RING for receive but fell back to the
// raw socket for transmit (PF_RING < 3.7.5 had no send path); LVRM 1.1 uses
// PF_RING both ways. The achievable throughput at small frames shows each
// step of the upgrade.
func ablationSocket(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"frame size (B)", "rawsocket (Kfps)", "pfring-v1.0 (Kfps)", "pfring-v1.1 (Kfps)"}}
	for _, size := range []int{84, 512, 1538} {
		row := []string{fmt.Sprintf("%d", size)}
		for _, mech := range []netio.Mechanism{netio.RawSocket, netio.PFRingV1, netio.PFRing} {
			mech := mech
			build := func() (*rig, error) {
				return buildLVRMRig(lvrmOpts{gw: testbed.LVRMGatewayConfig{Mechanism: mech, Seed: cfg.Seed}, vrKind: vrBasic})
			}
			trial := udpTrial(build, size, cfg.TrialDuration())
			got := testbed.AchievableThroughput(trial, 2*testbed.MaxSenderFPS, cfg.SearchIters())
			row = append(row, fmt.Sprintf("%.0f", got/1000))
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		"Upgrading only the receive path (v1.0) recovers part of the raw socket's loss; upgrading transmit too (v1.1, 3 Sep 2011) reaches the sender cap.",
		"This ablates the design choice behind LVRM 1.1's ipfring_send() adoption (Section 3.1).")
	return res, nil
}

// ablationEstimate ablates this implementation's one deliberate deviation
// from Figure 3.4: refreshing each VRI's queue-length EWMA when the balancer
// *reads* it, not only when a frame is dispatched *to that VRI*. With
// update-on-dispatch only, a VRI whose queue overflowed once keeps a stale
// high estimate after draining, JSQ never picks it again, and the VR's
// effective capacity collapses to the remaining VRIs. The experiment runs
// the same overload with both estimator disciplines.
func ablationEstimate(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"estimate discipline", "delivered (Kfps)", "VRIs that did work"}}
	scale := cfg.RateScale()
	perCore := 60000 * scale
	offered := 330000 * scale // just under 6 cores' capacity, after a burst
	for _, stale := range []bool{false, true} {
		r, err := buildLVRMRig(lvrmOpts{
			gw:      testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Seed: cfg.Seed},
			vrKind:  vrBasic,
			dummy:   time.Duration(float64(time.Second) / perCore),
			initial: 6,
		})
		if err != nil {
			return nil, err
		}
		v := r.lgw.LVRM().VRs()[0]
		if stale {
			for _, a := range v.VRIs() {
				a.FreezeLoadOnRead = true
			}
		}
		recv := 0
		r.topo.OnReceiverSide = func(*packet.Frame) { recv++ }
		// A short overload burst fills every queue, then the offered rate
		// drops to sustainable: the stale discipline never recovers the
		// drained VRIs.
		profile := traffic.Profile{
			{Start: 0, FPS: 10 * offered},
			{Start: cfg.Dwell() / 5, FPS: offered},
		}
		newProfileSender("S1", senderIP1, receiverIP1, profile, 0, r)
		r.eng.Run(3 * cfg.Dwell())
		active := 0
		for _, a := range v.VRIs() {
			if a.Processed() > 0 {
				active++
			}
		}
		label := "refreshed-on-read (ours)"
		if stale {
			label = "update-on-dispatch only (Fig. 3.4 literal)"
		}
		res.AddRow(label,
			fmt.Sprintf("%.0f", float64(recv)/(3*cfg.Dwell()).Seconds()/1000),
			fmt.Sprintf("%d/6", active))
	}
	res.Notes = append(res.Notes,
		"Reading the queue length on every balancing decision keeps drained VRIs attractive; the literal update-on-dispatch rule can strand capacity after a burst (see internal/core VRIAdapter.runLoad).")
	return res, nil
}
