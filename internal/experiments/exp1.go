package experiments

import (
	"fmt"
	"time"

	"lvrm/internal/sim"

	"lvrm/internal/core"
	"lvrm/internal/metrics"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/testbed"
	"lvrm/internal/trace"
	"lvrm/internal/traffic"
)

func init() {
	register("1a", "Fig. 4.2", "Achievable throughput in data forwarding vs frame size", exp1a)
	register("1a-cpu", "Fig. 4.3", "Per-core CPU usage (us/sy/si) in data forwarding", exp1aCPU)
	register("1b", "Fig. 4.4", "Round-trip latency in data forwarding", exp1b)
	register("1c", "Fig. 4.5", "Achievable throughput with LVRM only (memory backend)", exp1c)
	register("1d", "Fig. 4.6", "Per-frame latency with LVRM only (memory backend)", exp1d)
	register("1e", "Fig. 4.7", "Latency of control-message passing between VRIs", exp1e)
}

// exp1a measures the achievable throughput of every forwarding mechanism at
// every frame size. Expected shape: native ≈ LVRM+PF_RING at every size;
// LVRM+raw-socket ~50% lower at 84 B; Click VR lower still; hypervisors far
// below, QEMU-KVM worst.
func exp1a(cfg Config) (*Result, error) {
	mechs := exp1Mechanisms()
	res := &Result{Columns: []string{"frame size (B)"}}
	for _, m := range mechs {
		res.Columns = append(res.Columns, m.label+" (Kfps)")
	}
	for _, size := range cfg.FrameSizes() {
		row := []string{fmt.Sprintf("%d", size)}
		for _, m := range mechs {
			m := m
			trial := udpTrial(m.build, size, cfg.TrialDuration())
			// The sender hosts cap the ceiling; the line rate caps large
			// frames implicitly through the links.
			got := testbed.AchievableThroughput(trial, 2*testbed.MaxSenderFPS, cfg.SearchIters())
			row = append(row, fmt.Sprintf("%.0f", got/1000))
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		"Ceiling is the testbed sender cap (2×224 Kfps) at small frames and the 1 Gbps line rate at large frames, as in §4.1.")
	return res, nil
}

// exp1aCPU reports the us/sy/si split of the gateway's busiest core while
// forwarding minimum-size frames at a fixed high load.
func exp1aCPU(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"mechanism", "offered (Kfps)", "us %", "sy %", "si %", "total %"}}
	// The paper measures CPU while forwarding at the achievable rate of
	// Experiment 1a; offer each mechanism ~90% of its measured capacity so
	// the cores run hot without unbounded backlog.
	offeredFor := map[string]float64{
		"native-linux":       400000,
		"lvrm-c++-rawsocket": 200000,
		"lvrm-c++-pfring":    400000,
		"lvrm-click-pfring":  50000,
		"vmware-server":      100000,
		"qemu-kvm":           25000,
	}
	dur := cfg.TrialDuration()
	for _, m := range exp1Mechanisms() {
		r, err := m.build()
		if err != nil {
			return nil, err
		}
		offered := offeredFor[m.label]
		s1 := newSender("S1", senderIP1, receiverIP1, 84, offered/2, r)
		s2 := newSender("S2", senderIP2, receiverIP2, 84, offered/2, r)
		s1.start()
		s2.start()
		r.eng.Run(dur)
		var coreSrv *testbed.CoreServer
		if m.simple {
			coreSrv = r.gw.(*testbed.SimpleGateway).Core()
		} else {
			coreSrv = r.lgw.MonitorCore()
		}
		us := 100 * coreSrv.Utilization(testbed.User, dur)
		sy := 100 * coreSrv.Utilization(testbed.System, dur)
		si := 100 * coreSrv.Utilization(testbed.SoftIRQ, dur)
		res.AddRow(m.label, fmt.Sprintf("%.0f", offered/1000),
			fmt.Sprintf("%.1f", us), fmt.Sprintf("%.1f", sy), fmt.Sprintf("%.1f", si),
			fmt.Sprintf("%.1f", us+sy+si))
	}
	res.Notes = append(res.Notes,
		"Native forwarding services softirqs only; the raw-socket LVRM burns the most system time; PF_RING keeps user-space time low (Fig. 4.3).")
	return res, nil
}

// exp1b measures ping round-trip latency through each mechanism.
func exp1b(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"mechanism", "mean RTT (µs)", "replies"}}
	for _, m := range exp1Mechanisms() {
		r, err := m.build()
		if err != nil {
			return nil, err
		}
		var p *traffic.Pinger
		p = &traffic.Pinger{
			Src: senderIP1, Dst: receiverIP1,
			Interval: 500 * time.Microsecond,
			Emit:     r.topo.SendFromSender,
		}
		// Receiver host echoes requests; sender host matches replies.
		r.topo.OnReceiverSide = func(f *packet.Frame) {
			if reply := traffic.EchoResponder(receiverIP1, f); reply != nil {
				r.topo.SendFromReceiver(reply)
			}
		}
		r.topo.OnSenderSide = func(f *packet.Frame) { p.HandleReply(f) }
		if err := p.Start(r.eng); err != nil {
			return nil, err
		}
		r.eng.Run(time.Duration(cfg.PingCount()) * 500 * time.Microsecond)
		res.AddRow(m.label,
			fmt.Sprintf("%.1f", float64(p.MeanRTT())/1000),
			fmt.Sprintf("%d", p.Received()))
	}
	res.Notes = append(res.Notes,
		"Native and all LVRM variants sit in the same band (host stacks dominate); hypervisors are remarkably higher (Fig. 4.4).")
	return res, nil
}

// exp1c measures the maximum frame rate with the memory backend: C++ VR
// ≈ 3.7 Mfps at 84 B and ≈ 920 Kfps (11 Gbps) at 1538 B; Click VR far lower.
func exp1c(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"frame size (B)", "c++-vr (Kfps)", "c++-vr (Gbps)", "click-vr (Kfps)"}}
	dur := cfg.TrialDuration()
	for _, size := range cfg.FrameSizes() {
		rates := map[vrKind]float64{}
		for _, k := range []vrKind{vrBasic, vrClick} {
			// The network is excluded entirely: frames enter from RAM and
			// the output interface simply discards them — no links, so the
			// C++ VR can exceed the 1 Gbps line rate (11 Gbps at 1538 B).
			delivered := 0
			// The closed loop recycles its 64 in-flight frames through a
			// pool instead of Cloning per lap, so the measured peak is
			// LVRM's per-frame cost, not the Go allocator's.
			framePool := pool.New()
			var inject func()
			bare, err := buildBareLVRM(lvrmOpts{gw: testbed.LVRMGatewayConfig{Mechanism: netio.Memory}, vrKind: k}, func(f *packet.Frame, _ int) {
				delivered++
				f.Release()
				inject()
			})
			if err != nil {
				return nil, err
			}
			frames, err := trace.Generate(trace.GenerateOpts{Count: 64, WireSize: size})
			if err != nil {
				return nil, err
			}
			next := 0
			inject = func() {
				f := framePool.Copy(frames[next%len(frames)])
				next++
				bare.gw.Arrive(f, 0)
			}
			// Closed loop: keep 64 frames in flight so the pipeline stays
			// saturated ("reads frames from RAM as fast as possible").
			for i := 0; i < 64; i++ {
				inject()
			}
			bare.eng.Run(dur)
			rates[k] = float64(delivered) / dur.Seconds()
		}
		gbps := rates[vrBasic] * float64(size) * 8 / 1e9
		res.AddRow(fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f", rates[vrBasic]/1000),
			fmt.Sprintf("%.2f", gbps),
			fmt.Sprintf("%.0f", rates[vrClick]/1000))
	}
	res.Notes = append(res.Notes,
		"The C++ VR's peak depends only on LVRM's internal per-frame cost; the Click VR's element graph is the bottleneck (Fig. 4.5).")
	return res, nil
}

// exp1d measures the in-to-out latency of a single frame through LVRM with
// the memory backend at low load: ≤15 µs for the C++ VR, 25-35 µs for Click.
func exp1d(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"frame size (B)", "c++-vr (µs)", "click-vr (µs)"}}
	n := 200
	if cfg.Full {
		n = 2000
	}
	for _, size := range cfg.FrameSizes() {
		lat := map[vrKind]time.Duration{}
		for _, k := range []vrKind{vrBasic, vrClick} {
			stats := metrics.NewLatencyStats(0)
			var sentAt []int64
			var eng *sim.Engine
			bare, err := buildBareLVRM(lvrmOpts{gw: testbed.LVRMGatewayConfig{Mechanism: netio.Memory}, vrKind: k}, func(*packet.Frame, int) {
				t0 := sentAt[0]
				sentAt = sentAt[1:]
				stats.Observe(time.Duration(eng.Now() - t0))
			})
			if err != nil {
				return nil, err
			}
			eng = bare.eng
			frames, err := trace.Generate(trace.GenerateOpts{Count: 8, WireSize: size})
			if err != nil {
				return nil, err
			}
			// One frame at a time, well spaced: pure path latency.
			for i := 0; i < n; i++ {
				i := i
				eng.Schedule(time.Duration(i)*100*time.Microsecond, func() {
					sentAt = append(sentAt, eng.Now())
					bare.gw.Arrive(frames[i%len(frames)].Clone(), 0)
				})
			}
			eng.Run(time.Duration(n+10) * 100 * time.Microsecond)
			if stats.Count() == 0 {
				return nil, fmt.Errorf("exp1d: no frames traversed (%v, %dB)", k, size)
			}
			lat[k] = stats.Mean()
		}
		res.AddRow(fmt.Sprintf("%d", size),
			fmt.Sprintf("%.1f", float64(lat[vrBasic])/1000),
			fmt.Sprintf("%.1f", float64(lat[vrClick])/1000))
	}
	res.Notes = append(res.Notes,
		"LVRM itself contributes little latency versus the 70-120 µs network path of Experiment 1b (Fig. 4.6).")
	return res, nil
}

// exp1e measures control-event relay latency between two VRIs of one VR,
// unloaded and at full data load: 5-7 µs vs 10-12 µs in the paper.
func exp1e(cfg Config) (*Result, error) {
	res := &Result{Columns: []string{"event size (B)", "no-load (µs)", "full-load (µs)"}}
	sizes := []int{64, 128, 256, 512, 1024}
	run := func(size int, loadFPS float64) (time.Duration, error) {
		stats := metrics.NewLatencyStats(0)
		var gw *testbed.LVRMGateway
		onControl := func(ev *core.ControlEvent, at int64) {
			stats.Observe(time.Duration(at - ev.SentAt))
		}
		r, err := buildLVRMRig(lvrmOpts{
			gw:     testbed.LVRMGatewayConfig{Mechanism: netio.PFRing, OnControl: onControl},
			vrKind: vrBasic, initial: 2,
		})
		if err != nil {
			return 0, err
		}
		gw = r.lgw
		if loadFPS > 0 {
			// Real kernel-scheduled senders microburst; the resulting
			// short queues at the monitor are what lift the full-load
			// relay latency in Figure 4.7.
			s1 := newSender("S1", senderIP1, receiverIP1, 84, loadFPS/2, r)
			s2 := newSender("S2", senderIP2, receiverIP2, 84, loadFPS/2, r)
			s1.s.Poisson, s1.s.Seed = true, cfg.Seed+1
			s2.s.Poisson, s2.s.Seed = true, cfg.Seed+2
			s1.start()
			s2.start()
		}
		vris := gw.LVRM().VRs()[0].VRIs()
		src, dst := vris[0], vris[1]
		n := 200
		if cfg.Full {
			n = 2000
		}
		for i := 0; i < n; i++ {
			i := i
			r.eng.Schedule(time.Duration(i)*200*time.Microsecond+time.Millisecond, func() {
				ev := &core.ControlEvent{
					DstVR: 0, DstVRI: dst.ID,
					Payload: make([]byte, size),
					SentAt:  r.eng.Now(),
				}
				if src.SendControl(ev) {
					gw.PumpControl()
				}
			})
		}
		r.eng.Run(time.Duration(n)*200*time.Microsecond + 10*time.Millisecond)
		if stats.Count() == 0 {
			return 0, fmt.Errorf("exp1e: no control events delivered")
		}
		return stats.Mean(), nil
	}
	for _, size := range sizes {
		noLoad, err := run(size, 0)
		if err != nil {
			return nil, err
		}
		// "Full load" is ~90% of the Experiment 1a achievable rate for
		// this configuration (bursty senders at the exact cap would push
		// the monitor into unbounded queueing).
		fullLoad, err := run(size, 0.9*2*testbed.MaxSenderFPS)
		if err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprintf("%d", size),
			fmt.Sprintf("%.1f", float64(noLoad)/1000),
			fmt.Sprintf("%.1f", float64(fullLoad)/1000))
	}
	res.Notes = append(res.Notes,
		"Under full load the destination VRI is usually mid-frame when the event arrives, adding a few µs (Fig. 4.7).")
	return res, nil
}
