package bench

import (
	"fmt"
	"time"

	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/testbed"
	"lvrm/internal/traffic"
)

// liveMigration forces a live VRI relocation every 250 ms while the VR
// forwards at ~80% of its aggregate line rate, and measures what each move
// costs the data plane. The gated metric is migration_p99_us, the p99
// delivery latency of frames sent inside a migration window — absolute, so
// the regression gate has a stable nonzero scale to bite on;
// migration_added_p99_us (that p99 minus the matched pre-move control
// window's) rides along as the isolated per-move cost. The engine's whole
// contract is on trial — a move pauses only the two instances it touches
// for less than one service quantum, the transplanted partition drains in
// order ahead of new arrivals, and nothing is lost: any counted drop,
// intra-flow reorder, post-tail leftover, or unaccounted frame fails the
// trial outright.
func liveMigration() Scenario {
	const (
		vris       = 2
		loadFactor = 0.8 // offered rate vs the replica set's aggregate capacity
		flows      = 256 // 65536 % flows == 0, so flow index = IPv4 ID % flows
	)
	return Scenario{
		Name:    "live-migration",
		Title:   "forced live VRI moves every 250 ms under 80% line-rate forwarding",
		Primary: "migration_p99_us",
		Better:  "lower",
		Configure: func(c Config) map[string]float64 {
			const per = perVRIFPS
			period, window := migrationCadence(c)
			return map[string]float64{
				"duration_s":     c.Duration().Seconds(),
				"per_vri_fps":    per,
				"load_factor":    loadFactor,
				"flows":          flows,
				"vris":           vris,
				"move_period_ms": period.Seconds() * 1000,
				"window_ms":      window.Seconds() * 1000,
			}
		},
		Run: func(c Config) (Metrics, error) {
			// Rates stay at paper scale in quick mode (as in route-churn):
			// the shorter duration alone compresses the trial, and the p99
			// keeps a thousands-deep sample base under every window.
			const per = perVRIFPS
			period, window := migrationCadence(c)
			dur := c.Duration()
			quietAt := 9 * dur / 10

			cfg := core.VRConfig{
				Name:        "vr1",
				SrcPrefix:   packet.MustParseIP("10.1.0.0"),
				SrcBits:     16,
				Engine:      benchEngine(perVRIDummy),
				InitialVRIs: vris,
			}
			rig, err := testbed.NewRig(testbed.RigOpts{
				Gateway: testbed.LVRMGatewayConfig{
					Monitor:   core.Config{FlowShards: 8, FlowTableCap: 256, MaxReplicas: vris},
					Mechanism: netio.PFRing,
					Seed:      c.Seed,
				},
				VRs: []core.VRConfig{cfg},
			})
			if err != nil {
				return nil, err
			}
			l := rig.GW.LVRM()
			v := l.VRs()[0]

			// Moves fire on a fixed schedule from D/4 until 8D/10, cycling
			// round-robin over the replica set. (Round-robin, not hottest:
			// picking the instance at its backlog peak would time every move
			// at a local latency maximum and bias the before/after windows.)
			// Every scheduled move must land — the rig's 2×4 topology always
			// has a free core — so a failed move is a hard scenario error.
			var moveTimes []time.Duration
			for at := dur / 4; at < 8*dur/10; at += period {
				moveTimes = append(moveTimes, at)
			}
			var moved int64
			var framesMoved, pinsFlipped int64
			var maxPause time.Duration
			var moveErr error
			for i, at := range moveTimes {
				turn := i
				rig.Eng.Schedule(at, func() {
					if moveErr != nil {
						return
					}
					vs := v.VRIs()
					if len(vs) == 0 {
						moveErr = fmt.Errorf("bench: live-migration found no running VRI to move")
						return
					}
					pick := vs[turn%len(vs)]
					rep, err := l.MoveVRI(v.ID, pick.ID, -1)
					if err != nil {
						moveErr = fmt.Errorf("bench: live move of VRI %d failed: %w", pick.ID, err)
						return
					}
					moved++
					framesMoved += rep.Moved
					pinsFlipped += rep.Pins
					if rep.Pause > maxPause {
						maxPause = rep.Pause
					}
				})
			}

			// Per-frame latency by IPv4 ID (the sender stamps ID with its
			// sequence number): the emit wrapper records virtual send time and
			// each delivery is classified by when it was SENT. A frame sent in
			// [move, move+window) is a migration sample; one sent in the
			// matched control window [move−window, move) just before is a
			// baseline sample. Matched windows keep the two populations the
			// same size and the same load regime, so the p99 difference
			// isolates the move itself rather than warmup transients or
			// sample-mass bias.
			var sendNs [65536]int64
			var base, mig []float64
			delivered := int64(0)
			lastID := make([]uint16, flows)
			seen := make([]bool, flows)
			reorders := int64(0)
			rig.Topo.OnReceiverSide = func(f *packet.Frame) {
				delivered++
				h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
				if err != nil {
					return
				}
				idx := int(h.ID) % flows
				if seen[idx] && int16(h.ID-lastID[idx]) <= 0 {
					reorders++
				}
				seen[idx], lastID[idx] = true, h.ID
				s := sendNs[h.ID]
				lat := float64(rig.Eng.Now() - s)
				at := time.Duration(s)
				if at >= quietAt {
					return
				}
				for _, mt := range moveTimes {
					if at >= mt && at < mt+window {
						mig = append(mig, lat)
						break
					}
					if at >= mt-window && at < mt {
						base = append(base, lat)
						break
					}
				}
			}
			sender := &traffic.UDPSender{
				Name: "load", Src: benchSender1, Dst: benchReceiver,
				SrcPort: 5000, DstPort: 9, Flows: flows,
				Profile: traffic.Profile{
					{Start: 0, FPS: loadFactor * vris * per},
					{Start: quietAt, FPS: 0}, // silence so every queue drains
				},
				Jitter: 0.1, Seed: c.Seed,
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
			rig.Eng.Run(dur)
			if moveErr != nil {
				return nil, moveErr
			}
			if moved != int64(len(moveTimes)) {
				return nil, fmt.Errorf("bench: live-migration ran %d of %d scheduled moves", moved, len(moveTimes))
			}
			if framesMoved == 0 {
				return nil, fmt.Errorf("bench: live-migration moved VRIs but transplanted no frames — the load never backed up")
			}
			if m := v.Migrations(); m.Moves != moved {
				return nil, fmt.Errorf("bench: VR counted %d moves, the scenario ran %d", m.Moves, moved)
			}

			// Conservation across every move: each received frame is forwarded
			// — none unaccounted, none queued after the quiet tail, none in a
			// drop bucket — and no flow was ever reordered.
			if err := l.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("bench: live-migration after the quiet tail: %w", err)
			}
			if lost := l.Ledger().Dropped(); lost != 0 {
				return nil, fmt.Errorf("bench: live-migration lost %d frames across %d moves", lost, moved)
			}
			if reorders != 0 {
				return nil, fmt.Errorf("bench: live-migration reordered %d frames within flows", reorders)
			}

			return Metrics{
				"migration_added_p99_us": percentileUS(mig, 0.99) - percentileUS(base, 0.99),
				"migration_p99_us":       percentileUS(mig, 0.99),
				"migration_p50_us":       percentileUS(mig, 0.50),
				"baseline_p99_us":        percentileUS(base, 0.99),
				"delivered_kfps":         kfps(delivered, dur),
				"delivered_ratio":        ratio(delivered, sender.Sent()),
				"moves":                  float64(moved),
				"frames_moved":           float64(framesMoved),
				"pins_flipped":           float64(pinsFlipped),
				"max_pause_us":           float64(maxPause) / 1e3,
			}, nil
		},
	}
}

// migrationCadence returns the forced-move period and the post-move window
// latency samples are attributed to. Quick mode compresses both with the
// 10× shorter duration so each trial still lands ~5 moves. The window is
// half the period — wide enough that each trial's p99 rests on thousands of
// samples rather than a handful, narrow enough that the control window
// before each move never overlaps the previous move's drain.
func migrationCadence(c Config) (period, window time.Duration) {
	if c.Full {
		return 250 * time.Millisecond, 125 * time.Millisecond
	}
	return 25 * time.Millisecond, 12500 * time.Microsecond
}
