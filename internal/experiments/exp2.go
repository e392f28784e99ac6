package experiments

import (
	"fmt"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/core"
	"lvrm/internal/metrics"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/testbed"
	"lvrm/internal/traffic"
)

func init() {
	register("2a", "Fig. 4.8", "Throughput vs core affinity (sibling/non-sibling/default/same)", exp2a)
	register("2b", "Fig. 4.9", "Throughput vs number of fixed cores (with 1/60 ms dummy load)", exp2b)
	register("2c", "Fig. 4.10", "Dynamic core allocation timeline for one VR", exp2c)
	register("2c-lat", "Fig. 4.11", "Reaction latency of core (de)allocations", exp2cLat)
	register("2d", "Fig. 4.12", "Dynamic core allocation with two VRs (staggered flows)", exp2d)
	register("2e", "Fig. 4.13", "Dynamic core allocation with dynamic (service-rate) thresholds", exp2e)
}

// exp2a compares VRI placements for a single-VRI VR: sibling best,
// non-sibling next, kernel-default below that, same-core worst.
func exp2a(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"affinity", "c++-vr (Kfps)", "click-vr (Kfps)"}}
	modes := []struct {
		label string
		mode  testbed.AffinityMode
	}{
		{"sibling", testbed.AffinitySibling},
		{"non-sibling", testbed.AffinityNonSibling},
		{"default", testbed.AffinityOSDefault},
		{"same", testbed.AffinitySame},
	}
	for _, m := range modes {
		row := []string{m.label}
		for _, k := range []vrKind{vrBasic, vrClick} {
			k, mode := k, m.mode
			build := func() (*rig, error) {
				return buildLVRMRig(lvrmOpts{gw: testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Affinity: mode, Seed: cfg.Seed}, vrKind: k})
			}
			trial := udpTrial(build, 84, cfg.TrialDuration())
			got := testbed.AchievableThroughput(trial, 2*testbed.MaxSenderFPS, cfg.SearchIters())
			row = append(row, fmt.Sprintf("%.0f", got/1000))
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		"The Click VR's placements converge because its own element processing is the bottleneck (Fig. 4.8).",
		"'default' trails 'non-sibling' because kernel migrations add context switches on top of cross-socket traffic.")
	return res, nil
}

// exp2b fixes the VR's core count at 1..8 under a 360 Kfps offered load with
// the 1/60 ms dummy load: throughput scales as ~60c Kfps until it saturates,
// and over-subscribing past the 7 free cores (the 8th shares LVRM's core)
// hurts. Rates scale down in quick mode; the staircase is scale-free.
func exp2b(cfg Config) (*Result, error) {
	scale := cfg.RateScale()
	perCore := 60000 * scale
	offered := 360000 * scale
	dummy := time.Duration(float64(time.Second) / perCore)
	res := &Result{Columns: []string{"cores", "ideal (Kfps)", "c++-vr (Kfps)", "click-vr (Kfps)"}}
	for c := 1; c <= 8; c++ {
		ideal := perCore * float64(c)
		if ideal > offered {
			ideal = offered
		}
		row := []string{fmt.Sprintf("%d", c), fmt.Sprintf("%.0f", ideal/1000)}
		for _, k := range []vrKind{vrBasic, vrClick} {
			k, c := k, c
			build := func() (*rig, error) {
				return buildLVRMRig(lvrmOpts{
					gw: testbed.LVRMGatewayConfig{
						Monitor:   core.Config{AllowSharedLVRMCore: true},
						Mechanism: netio.PFRing, Seed: cfg.Seed,
					},
					vrKind: k, dummy: dummy, initial: c,
				})
			}
			trial := udpTrial(build, 84, cfg.TrialDuration())
			got := testbed.AchievableThroughput(trial, offered, cfg.SearchIters())
			row = append(row, fmt.Sprintf("%.0f", got/1000))
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("Dummy load %v per frame makes each VRI worth ~%.0f Kfps; rates scaled by %.2g in quick mode.", dummy, perCore/1000, scale),
		"The 8-core row over-subscribes LVRM's own core and loses throughput to contention (Fig. 4.9).")
	return res, nil
}

// stairRig builds the dynamic-allocation scenario shared by 2c/2c-lat:
// one VR, dynamic-fixed thresholds, staircase load 60→360→60 Kfps (scaled).
func stairRig(cfg Config) (*rig, *trafficSender, float64, error) {
	scale := cfg.RateScale()
	perCore := 60000 * scale
	dummy := time.Duration(float64(time.Second) / perCore)
	r, err := buildLVRMRig(lvrmOpts{
		gw:     testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Seed: cfg.Seed},
		vrKind: vrBasic, dummy: dummy,
		policy: func() alloc.Policy { return alloc.NewDynamicFixed(perCore) },
	})
	if err != nil {
		return nil, nil, 0, err
	}
	profile := traffic.StepProfile(perCore, 6*perCore, perCore, cfg.Dwell())
	s := newProfileSender("S1", senderIP1, receiverIP1, profile, 0, r)
	return r, s, perCore, nil
}

// exp2c runs the staircase and samples the VR's core count over time: the
// allocation tracks ceil(rate / threshold) up and down.
func exp2c(cfg Config) (*Result, error) {
	r, _, perCore, err := stairRig(cfg)
	if err != nil {
		return nil, err
	}
	profileDur := traffic.StepProfile(perCore, 6*perCore, perCore, cfg.Dwell()).Duration()
	var coresSeries, rateSeries metrics.Series
	v := r.lgw.LVRM().VRs()[0]
	sample := cfg.Dwell() / 10
	r.eng.Every(sample, sample, func() {
		coresSeries.Add(r.eng.NowDur(), float64(v.Cores()))
		rateSeries.Add(r.eng.NowDur(), v.ArrivalRate())
	})
	r.eng.Run(profileDur + 2*cfg.Dwell())
	res := &Result{Columns: []string{"t (s)", "offered (Kfps)", "estimated arrival (Kfps)", "cores"}}
	for i, p := range coresSeries.Points {
		if i%5 != 0 {
			continue // decimate for the table; the series is the figure
		}
		res.AddRow(
			fmt.Sprintf("%.1f", p.T.Seconds()),
			fmt.Sprintf("%.0f", stairOffered(p.T, perCore, cfg.Dwell())/1000),
			fmt.Sprintf("%.0f", rateSeries.At(p.T)/1000),
			fmt.Sprintf("%.0f", p.V),
		)
	}
	if coresSeries.Max() < 5.5 {
		res.Notes = append(res.Notes, fmt.Sprintf("WARNING: peak allocation %.0f cores, expected 6", coresSeries.Max()))
	}
	res.Notes = append(res.Notes,
		"The core count steps up with each 60 Kfps-equivalent load increment and back down as the load recedes (Fig. 4.10).")
	return res, nil
}

// stairOffered returns the staircase's offered rate at time t.
func stairOffered(t time.Duration, perCore float64, dwell time.Duration) float64 {
	return traffic.StepProfile(perCore, 6*perCore, perCore, dwell).RateAt(t)
}

// exp2cLat reports every allocation/deallocation event and its reaction
// latency: allocations within ~900 µs, deallocations within ~700 µs, both
// growing slightly with the number of live VRIs.
func exp2cLat(cfg Config) (*Result, error) {
	r, _, perCore, err := stairRig(cfg)
	if err != nil {
		return nil, err
	}
	profileDur := traffic.StepProfile(perCore, 6*perCore, perCore, cfg.Dwell()).Duration()
	r.eng.Run(profileDur + 2*cfg.Dwell())
	events := r.lgw.LVRM().AllocEvents()
	res := &Result{Columns: []string{"t (s)", "event", "core", "cores after", "latency (µs)"}}
	var maxAlloc, maxDealloc time.Duration
	for _, e := range events {
		kind := "dealloc"
		if e.Grow {
			kind = "alloc"
			if e.Latency > maxAlloc {
				maxAlloc = e.Latency
			}
		} else if e.Latency > maxDealloc {
			maxDealloc = e.Latency
		}
		res.AddRow(
			fmt.Sprintf("%.2f", time.Duration(e.At).Seconds()),
			kind,
			fmt.Sprintf("%d", e.Core),
			fmt.Sprintf("%d", e.Cores),
			fmt.Sprintf("%.0f", float64(e.Latency)/1000),
		)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("Max allocation latency %.0f µs (paper: ≤900 µs); max deallocation %.0f µs (paper: ≤700 µs).",
			float64(maxAlloc)/1000, float64(maxDealloc)/1000),
		"Allocations cost more than deallocations (heavyweight process creation), and both grow with the number of VRI monitors iterated (Fig. 4.11).")
	// 9 events: five allocations (2..6 cores) and four deallocations
	// (6..2). The final 2→1 step does not fire because at exactly the
	// 60 Kfps boundary the paper's rule reads inclusively ("if the rate
	// reaches the threshold, increment to two"), so two cores is the
	// stable allocation for a 60 Kfps load.
	if len(events) < 9 {
		res.Notes = append(res.Notes, fmt.Sprintf("WARNING: only %d allocation events (expected 9)", len(events)))
	}
	return res, nil
}

// exp2d staggers two VRs' staircases (max 180 Kfps each, 30 Kfps steps) and
// shows each VR's allocation independently tracking its own load.
func exp2d(cfg Config) (*Result, error) {
	scale := cfg.RateScale()
	perCore := 60000 * scale
	step := 30000 * scale
	maxRate := 180000 * scale
	dummy := time.Duration(float64(time.Second) / perCore)
	r, err := buildLVRMRig(lvrmOpts{
		gw:     testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, Seed: cfg.Seed},
		vrKind: vrBasic, dummy: dummy,
		policy:   func() alloc.Policy { return alloc.NewDynamicFixed(perCore) },
		secondVR: true,
	})
	if err != nil {
		return nil, err
	}
	profile := traffic.StepProfile(step, maxRate, step, cfg.Dwell())
	stagger := 3 * cfg.Dwell()
	newProfileSender("S1", senderIP1, receiverIP1, profile, 0, r)
	newProfileSender("S2", senderIP2, receiverIP2, profile, stagger, r)
	var vr1Series, vr2Series metrics.Series
	vrs := r.lgw.LVRM().VRs()
	sample := cfg.Dwell() / 5
	r.eng.Every(sample, sample, func() {
		vr1Series.Add(r.eng.NowDur(), float64(vrs[0].Cores()))
		vr2Series.Add(r.eng.NowDur(), float64(vrs[1].Cores()))
	})
	r.eng.Run(profile.Duration() + stagger + cfg.Dwell())
	res := &Result{Columns: []string{"t (s)", "vr1 cores", "vr2 cores"}}
	for i, p := range vr1Series.Points {
		if i%3 != 0 {
			continue
		}
		res.AddRow(
			fmt.Sprintf("%.1f", p.T.Seconds()),
			fmt.Sprintf("%.0f", p.V),
			fmt.Sprintf("%.0f", vr2Series.At(p.T)),
		)
	}
	if vr1Series.Max() < 2.5 || vr2Series.Max() < 2.5 {
		res.Notes = append(res.Notes, fmt.Sprintf("WARNING: peaks vr1=%.0f vr2=%.0f, expected 3 each", vr1Series.Max(), vr2Series.Max()))
	}
	res.Notes = append(res.Notes,
		"Each VR's core count follows its own staggered staircase with a small reaction time (Fig. 4.12).")
	return res, nil
}

// exp2e uses the dynamic-threshold (service-rate) policy with two VRs whose
// service rates differ 1:2 — the slower VR earns proportionally more cores
// for the same offered load.
func exp2e(cfg Config) (*Result, error) {
	scale := cfg.RateScale()
	base := 60000 * scale // VR2's per-VRI service rate; VR1 is half
	offered := 90000 * scale
	r, err := buildLVRMRig(lvrmOpts{
		gw:     testbed.LVRMGatewayConfig{Mechanism: vrServiceMech, Seed: cfg.Seed},
		vrKind: vrBasic,
		// The 1:2 service-rate ratio: VR1's frames cost twice as much.
		dummy:    time.Duration(2 * float64(time.Second) / base),
		dummy2:   time.Duration(float64(time.Second) / base),
		policy:   func() alloc.Policy { return alloc.NewDynamicService(0) },
		secondVR: true,
	})
	if err != nil {
		return nil, err
	}
	newProfileSender("S1", senderIP1, receiverIP1, traffic.ConstantProfile(offered), 0, r)
	newProfileSender("S2", senderIP2, receiverIP2, traffic.ConstantProfile(offered), 0, r)
	vrs := r.lgw.LVRM().VRs()
	var vr1Series, vr2Series metrics.Series
	sample := cfg.Dwell() / 5
	r.eng.Every(sample, sample, func() {
		vr1Series.Add(r.eng.NowDur(), float64(vrs[0].Cores()))
		vr2Series.Add(r.eng.NowDur(), float64(vrs[1].Cores()))
	})
	r.eng.Run(8 * cfg.Dwell())
	res := &Result{Columns: []string{"t (s)", "vr1 cores (slow, 1x)", "vr2 cores (fast, 2x)"}}
	for i, p := range vr1Series.Points {
		if i%4 != 0 {
			continue
		}
		res.AddRow(fmt.Sprintf("%.1f", p.T.Seconds()), fmt.Sprintf("%.0f", p.V), fmt.Sprintf("%.0f", vr2Series.At(p.T)))
	}
	finalVR1 := vr1Series.At(8 * cfg.Dwell())
	finalVR2 := vr2Series.At(8 * cfg.Dwell())
	res.Notes = append(res.Notes,
		fmt.Sprintf("Steady state: vr1=%.0f cores, vr2=%.0f cores for identical offered loads — the allocation is proportional to the measured service times (Fig. 4.13).", finalVR1, finalVR2))
	if finalVR1 < finalVR2+0.5 {
		res.Notes = append(res.Notes, "WARNING: the slower VR did not earn more cores")
	}
	return res, nil
}

// vrServiceMech is the I/O mechanism used in 2e (kept a named constant so
// the intent is searchable).
const vrServiceMech = netio.PFRing

var _ = packet.MinWireSize // keep the import stable across edits
