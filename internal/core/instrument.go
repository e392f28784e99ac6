package core

import (
	"strconv"

	"lvrm/internal/flow"
	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
)

// instruments bundles LVRM's observability handles. Every handle is nil-safe,
// so with Config.Obs/Config.Trace unset the hot path pays only a nil check.
//
// The split follows the package obs contract: anything the dispatch loop or a
// VRI goroutine touches per frame is a pre-registered atomic (counters,
// histograms); everything whose value already lives in an existing atomic —
// Stats counters, estimator outputs, queue lengths, adapter IOStats — is read
// at scrape time by collectors and costs the hot path nothing at all.
type instruments struct {
	tracer *obs.Tracer

	// Allocation pass (Figure 3.2 "allocate" / Experiment 2c reaction time).
	allocGrow     *obs.Counter
	allocShrink   *obs.Counter
	allocReaction *obs.Histogram
	vriSpawns     *obs.Counter
	vriDestroys   *obs.Counter
	drainDur      *obs.Histogram
	migPause      *obs.Histogram

	// Live runtime loop health.
	monitorPolls  *obs.Counter
	monitorIdle   *obs.Counter
	monitorYields *obs.Counter

	reg *obs.Registry // retained for per-VR registration in initVRObs
}

// initObs wires the registry and tracer into the LVRM instance: it registers
// the monitor-level instruments and installs scrape-time collectors over the
// counters, estimators, queues, and the socket adapter. reg and tracer may
// each be nil.
func (l *LVRM) initObs(reg *obs.Registry, tracer *obs.Tracer) {
	l.ins.tracer = tracer
	if reg == nil {
		return
	}
	l.ins.reg = reg
	l.ins.allocGrow = reg.Counter("lvrm_alloc_grow_total",
		"Core allocations performed (VRIs spawned by the allocation pass).")
	l.ins.allocShrink = reg.Counter("lvrm_alloc_shrink_total",
		"Core deallocations performed (VRIs destroyed by the allocation pass).")
	l.ins.allocReaction = reg.Histogram("lvrm_alloc_reaction_nanoseconds",
		"Modeled reallocation reaction time per allocation event (Experiment 2c).", nil)
	l.ins.vriSpawns = reg.Counter("lvrm_vri_spawn_total",
		"VRI adapters created (initial spawns plus allocation growth).")
	l.ins.vriDestroys = reg.Counter("lvrm_vri_destroy_total",
		"VRI adapters destroyed: retired by an allocation shrink, a replica fold or a live move.")
	l.ins.drainDur = reg.Histogram("lvrm_drain_duration_nanoseconds",
		"Wall time of one VRI teardown's drain-then-handoff (detach to Stopped).", nil)
	l.ins.migPause = reg.Histogram("lvrm_migration_pause_nanoseconds",
		"Consumer pause per migration-engine invocation: from the first pause to transplant completion (drain, split, fold, or live move).", nil)
	l.ins.monitorPolls = reg.Counter("lvrm_monitor_polls_total",
		"Monitor loop iterations in the live runtime.")
	l.ins.monitorIdle = reg.Counter("lvrm_monitor_idle_total",
		"Monitor loop iterations that found no work.")
	l.ins.monitorYields = reg.Counter("lvrm_monitor_yields_total",
		"Idle monitor loop iterations that gave up the P: a yield or a park.")

	// LVRM-level counters already exist as atomics on the Stats path; expose
	// them with collectors instead of double-counting on the hot path.
	reg.Collect("lvrm_frames_received_total",
		"Frames captured from the socket adapter.", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(l.received.Load())})
		})
	reg.Collect("lvrm_frames_sent_total",
		"Frames forwarded back out through the socket adapter.", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(l.sent.Load())})
		})
	reg.Collect("lvrm_frames_unclassified_total",
		"Frames no VR claimed (dropped at classification).", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(l.unclassified.Load())})
		})
	reg.Collect("lvrm_send_errors_total",
		"Frames consumed from a VRI's outgoing queue but lost because Adapter.Send failed.",
		obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(l.sendErrs.Load())})
		})
	reg.Collect("lvrm_control_relayed_total",
		"Control events relayed between VRIs.", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(l.ctlRelayed.Load())})
		})
	reg.Collect("lvrm_control_dropped_total",
		"Control events dropped (unknown destination or full queue).", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(l.ctlDropped.Load())})
		})
	reg.Collect("lvrm_vris_live",
		"VRIs currently running across all VRs.", obs.TypeGauge,
		func(emit func(obs.Sample)) {
			live := 0
			for _, v := range l.vrList() {
				live += v.Cores()
			}
			emit(obs.Sample{Value: float64(live)})
		})
	reg.Collect("lvrm_cores_free",
		"CPU cores not bound to any VRI.", obs.TypeGauge,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(l.allocator.FreeCount())})
		})

	// Per-VR gauges/counters: label sets grow as VRs are added, so one
	// collector per family walks the copy-on-write VR list at scrape time.
	perVR := func(name, help string, typ obs.Type, val func(*VR) float64) {
		reg.Collect(name, help, typ, func(emit func(obs.Sample)) {
			for _, v := range l.vrList() {
				emit(obs.Sample{
					Labels: []obs.Label{obs.L("vr", v.cfg.Name)},
					Value:  val(v),
				})
			}
		})
	}
	perVR("lvrm_vr_cores", "Cores (VRIs) currently allocated to the VR.",
		obs.TypeGauge, func(v *VR) float64 { return float64(v.Cores()) })
	perVR("lvrm_vr_arrival_fps", "EWMA arrival-rate estimate in frames/second.",
		obs.TypeGauge, func(v *VR) float64 { return v.arrival.Estimate() })
	perVR("lvrm_vr_service_fps", "Mean per-VRI EWMA service-rate estimate in frames/second.",
		obs.TypeGauge, func(v *VR) float64 { return v.ServiceRatePerVRI() })
	perVR("lvrm_vr_dispatched_total", "Frames dispatched into the VR's VRIs.",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.dispatched.Load()) })
	perVR("lvrm_vr_in_drops_total", "Frames lost to full VRI input queues.",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.inDrops.Load()) })
	perVR("lvrm_vr_admit_shed_total", "New-flow frames shed by load-aware admission (every VRI backed up past -flow-admit).",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.admitShed.Load()) })
	perVR("lvrm_vr_inline_vris", "VRIs of the VR the monitor goroutine runs to completion itself: 1 while the VR has one live VRI, 0 while worker goroutines consume them.",
		obs.TypeGauge, func(v *VR) float64 {
			n := 0
			for _, a := range v.vriList() {
				if a.inline.Load() != nil {
					n++
				}
			}
			return float64(n)
		})

	// Intra-VR replication (replicate.go): the elastic split/fold
	// transitions; the replica count is lvrm_vr_cores. Emitted for every VR —
	// a VR with replication off reports zero transitions — so dashboards
	// need no conditional wiring.
	perVR("lvrm_vr_splits_total", "Completed replica splits: a hot VR spawned a replica and migrated half its hottest partition.",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.splits.Load()) })
	perVR("lvrm_vr_folds_total", "Completed replica folds: a cold replica retired and merged its partition into a survivor.",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.folds.Load()) })

	// Migration engine (migrate.go): every hand-off path — teardown drain,
	// replica split/fold, live move — is one engine invocation, counted per
	// kind, plus the total frames it transplanted between instances.
	reg.Collect("lvrm_migrations_total",
		"Migration-engine invocations per VR and kind (kind = drain|split|fold|move).",
		obs.TypeCounter, func(emit func(obs.Sample)) {
			for _, v := range l.vrList() {
				for k := MigrationKind(0); k < migrationKinds; k++ {
					emit(obs.Sample{
						Labels: []obs.Label{obs.L("vr", v.cfg.Name), obs.L("kind", k.String())},
						Value:  float64(v.migrations[k].Load()),
					})
				}
			}
		})
	perVR("lvrm_migration_frames_moved_total", "Queued frames the migration engine transplanted between VRIs (all kinds).",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.migFrames.Load()) })
	perVR("lvrm_migration_pins_flipped_total", "Flow-table pins the migration engine re-pointed or unpinned (all kinds).",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.migPins.Load()) })

	// VRI lifecycle states (lifecycle.go). Running/draining are instantaneous
	// counts over the live list; stopped is the cumulative retired total, so
	// churn is visible even though stopped adapters leave the list.
	reg.Collect("lvrm_vri_state",
		"VRIs per lifecycle state (running/draining are live counts, stopped is cumulative).",
		obs.TypeGauge, func(emit func(obs.Sample)) {
			for _, v := range l.vrList() {
				running, draining := 0, 0
				for _, a := range v.vriList() {
					switch a.State() {
					case VRIDraining:
						draining++
					default:
						running++
					}
				}
				states := []struct {
					name string
					n    float64
				}{
					{VRIRunning.String(), float64(running)},
					{VRIDraining.String(), float64(draining)},
					{VRIStopped.String(), float64(v.retiredVRIs.Load())},
				}
				for _, s := range states {
					emit(obs.Sample{
						Labels: []obs.Label{obs.L("vr", v.cfg.Name), obs.L("state", s.name)},
						Value:  s.n,
					})
				}
			}
		})

	// Hand-off accounting, aggregated across every migration-engine
	// invocation (teardown drain, replica split/fold, live move). Every
	// residue frame appears in exactly one of lvrm_migration_frames_moved /
	// relayed / dropped, so the operator can prove conservation from the
	// scrape alone.
	perVR("lvrm_drain_relayed_total", "Data-out residue relayed to the socket adapter by a detaching migration.",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.drainRelayed.Load()) })
	perVR("lvrm_drain_dropped_total", "Migration residue released because no destination could take it.",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.drainDropped.Load()) })
	perVR("lvrm_drain_ctl_moved_total", "Control-out residue delivered to its destinations by a detaching migration.",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.drainCtlMoved.Load()) })
	perVR("lvrm_drain_ctl_dropped_total", "Control residue dropped by a detaching migration (addressed to the dead VRI or undeliverable).",
		obs.TypeCounter, func(v *VR) float64 { return float64(v.drainCtlDropped.Load()) })

	// Flow-affinity table outcomes and occupancy. Registered unconditionally
	// but emitting only for VRs with flow dispatch enabled, so the families
	// exist whether or not -flow-shards is set.
	flowSeries := func(name, help string, typ obs.Type, val func(*flow.Table) float64) {
		reg.Collect(name, help, typ, func(emit func(obs.Sample)) {
			for _, v := range l.vrList() {
				if v.flows == nil {
					continue
				}
				emit(obs.Sample{
					Labels: []obs.Label{obs.L("vr", v.cfg.Name)},
					Value:  val(v.flows),
				})
			}
		})
	}
	flowStat := func(name, help string, val func(flow.Stats) int64) {
		flowSeries(name, help, obs.TypeCounter, func(t *flow.Table) float64 { return float64(val(t.Stats())) })
	}
	flowStat("lvrm_flow_hits_total", "Dispatches resolved by a live flow-table pin.",
		func(s flow.Stats) int64 { return s.Hits })
	flowStat("lvrm_flow_misses_total", "Dispatches that installed a new flow-table pin.",
		func(s flow.Stats) int64 { return s.Misses })
	flowStat("lvrm_flow_refreshes_total", "Stale pins kept in place because moving the flow would reorder it.",
		func(s flow.Stats) int64 { return s.Refreshes })
	flowStat("lvrm_flow_rebalances_total", "Stale pins re-balanced onto a fresh VRI after a spawn/destroy epoch.",
		func(s flow.Stats) int64 { return s.Rebalances })
	flowStat("lvrm_flow_refusals_total", "Dispatches where pick declined a VRI (load-aware admission); nothing was installed.",
		func(s flow.Stats) int64 { return s.Refusals })
	flowStat("lvrm_flow_overflows_total", "New flows turned away unpinned by a table at capacity (established pins kept).",
		func(s flow.Stats) int64 { return s.Overflows })
	flowStat("lvrm_flow_evictions_total", "Pins dropped other than by a delete: always 0, as the slab is allocated at its capacity.",
		func(s flow.Stats) int64 { return s.Evictions })
	flowStat("lvrm_flow_unpinned_total", "Pins deleted: teardown sweep with no survivor, or stale pin whose repick refused.",
		func(s flow.Stats) int64 { return s.Unpinned })
	flowSeries("lvrm_flow_pinned", "Flows pinned in the affinity table.", obs.TypeGauge,
		func(t *flow.Table) float64 { return float64(t.Len()) })

	// Per-VRI series: VRIs spawn and die with core allocation, so these are
	// collectors too — no register/unregister churn in the allocation pass.
	perVRI := func(name, help string, typ obs.Type, val func(*VRIAdapter) float64) {
		reg.Collect(name, help, typ, func(emit func(obs.Sample)) {
			for _, v := range l.vrList() {
				for _, a := range v.vriList() {
					emit(obs.Sample{
						Labels: []obs.Label{
							obs.L("vr", v.cfg.Name),
							obs.L("vri", strconv.Itoa(a.ID)),
						},
						Value: val(a),
					})
				}
			}
		})
	}
	perVRI("lvrm_vri_data_queue_depth", "Frames waiting for the VRI: incoming data ring plus staged transplant residue (what the balancer and the split/fold controller read).",
		obs.TypeGauge, func(a *VRIAdapter) float64 { return float64(a.PendingData()) })
	perVRI("lvrm_vri_control_queue_depth", "Events waiting in the VRI's incoming control queue.",
		obs.TypeGauge, func(a *VRIAdapter) float64 { return float64(a.Control.In.Len()) })
	perVRI("lvrm_vri_queue_estimate", "EWMA queue-length estimate the balancer reads (Figure 3.4).",
		obs.TypeGauge, func(a *VRIAdapter) float64 { return a.QueueEst.Estimate() })
	perVRI("lvrm_vri_processed_total", "Data frames the VRI's engine has handled.",
		obs.TypeCounter, func(a *VRIAdapter) float64 { return float64(a.Processed()) })
	perVRI("lvrm_vri_engine_drops_total", "Frames the engine dropped (no route, TTL expiry, ...).",
		obs.TypeCounter, func(a *VRIAdapter) float64 { return float64(a.EngineDrops()) })
	perVRI("lvrm_vri_out_drops_total", "Frames lost because the outgoing data queue was full.",
		obs.TypeCounter, func(a *VRIAdapter) float64 { return float64(a.OutDrops()) })
	perVRI("lvrm_vri_migrated_in_total", "Frames the migration engine transplanted onto this VRI (staged split/fold/move residue plus teardown hand-offs).",
		obs.TypeCounter, func(a *VRIAdapter) float64 { return float64(a.MigratedIn()) })
	if l.cfg.RIB != nil {
		// Control-plane series (lvrm_rib_*, lvrm_fib_generation, publish
		// latency histogram) plus the per-VRI pinned generation: the spread
		// between a VRI's pinned generation and lvrm_fib_generation is the
		// convergence lag visible from the data path.
		l.cfg.RIB.Instrument(reg)
		perVRI("lvrm_vri_route_generation", "FIB generation the VRI last pinned (0 = static routes).",
			obs.TypeGauge, func(a *VRIAdapter) float64 { return float64(a.RouteGeneration()) })
	}

	// Per-queue enqueue-full rejections, straight from the IPC layer.
	reg.Collect("lvrm_vri_queue_drops_total",
		"Enqueue rejections per IPC queue (queue = data_in|data_out|ctl_in|ctl_out).",
		obs.TypeCounter, func(emit func(obs.Sample)) {
			for _, v := range l.vrList() {
				for _, a := range v.vriList() {
					base := []obs.Label{
						obs.L("vr", v.cfg.Name),
						obs.L("vri", strconv.Itoa(a.ID)),
					}
					queues := []struct {
						name  string
						drops int64
					}{
						{"data_in", ipc.DropsOf[*packet.Frame](a.Data.In)},
						{"data_out", ipc.DropsOf[*packet.Frame](a.Data.Out)},
						{"ctl_in", ipc.DropsOf[*ControlEvent](a.Control.In)},
						{"ctl_out", ipc.DropsOf[*ControlEvent](a.Control.Out)},
					}
					for _, q := range queues {
						labels := make([]obs.Label, 0, 3)
						labels = append(labels, base...)
						labels = append(labels, obs.L("queue", q.name))
						emit(obs.Sample{Labels: labels, Value: float64(q.drops)})
					}
				}
			}
		})

	// Socket-adapter frame/byte rates, when the adapter meters itself.
	if m, ok := l.cfg.Adapter.(netio.Meter); ok {
		label := []obs.Label{obs.L("adapter", l.cfg.Adapter.Name())}
		adapterStat := func(name, help string, val func(netio.IOStats) int64) {
			reg.Collect(name, help, obs.TypeCounter, func(emit func(obs.Sample)) {
				emit(obs.Sample{Labels: label, Value: float64(val(m.IOStats()))})
			})
		}
		adapterStat("lvrm_adapter_rx_frames_total", "Frames received by the socket adapter.",
			func(s netio.IOStats) int64 { return s.RxFrames })
		adapterStat("lvrm_adapter_rx_bytes_total", "Bytes received by the socket adapter.",
			func(s netio.IOStats) int64 { return s.RxBytes })
		adapterStat("lvrm_adapter_tx_frames_total", "Frames transmitted by the socket adapter.",
			func(s netio.IOStats) int64 { return s.TxFrames })
		adapterStat("lvrm_adapter_tx_bytes_total", "Bytes transmitted by the socket adapter.",
			func(s netio.IOStats) int64 { return s.TxBytes })
		adapterStat("lvrm_adapter_rx_dropped_total", "Inbound frames the adapter dropped (capture overflow).",
			func(s netio.IOStats) int64 { return s.RxDropped })
		adapterStat("lvrm_adapter_tx_dropped_total", "Outbound frames the adapter dropped.",
			func(s netio.IOStats) int64 { return s.TxDropped })
		adapterStat("lvrm_adapter_rx_runts_total", "Inbound payloads rejected as too short for an Ethernet header.",
			func(s netio.IOStats) int64 { return s.RxRunts })
		adapterStat("lvrm_adapter_rx_oversize_total", "Inbound payloads rejected as larger than the maximum frame.",
			func(s netio.IOStats) int64 { return s.RxOversize })
		adapterStat("lvrm_adapter_rejected_total", "Inbound datagrams refused by the adapter's source allow-list.",
			func(s netio.IOStats) int64 { return s.RxRejected })
	}

	// Frame-pool lifecycle counters, when pooling is enabled. Scrape-time
	// reads of the pool's own atomics — the recycle hot path stays untouched.
	if p := l.cfg.FramePool; p != nil {
		poolStat := func(name, help string, typ obs.Type, val func(pool.Stats) int64) {
			reg.Collect(name, help, typ, func(emit func(obs.Sample)) {
				emit(obs.Sample{Value: float64(val(p.Stats()))})
			})
		}
		poolStat("lvrm_pool_gets_total", "Frames handed out by the frame pool (Get, Copy, and pooled builders).",
			obs.TypeCounter, func(s pool.Stats) int64 { return s.Gets })
		poolStat("lvrm_pool_hits_total", "Pool gets served by a recycled buffer of the matching size class.",
			obs.TypeCounter, func(s pool.Stats) int64 { return s.Hits })
		poolStat("lvrm_pool_misses_total", "Pool gets that had to allocate a fresh buffer.",
			obs.TypeCounter, func(s pool.Stats) int64 { return s.Misses })
		poolStat("lvrm_pool_steals_total", "Pool gets served by a recycled oversize buffer with larger capacity (cross-size reuse).",
			obs.TypeCounter, func(s pool.Stats) int64 { return s.Steals })
		poolStat("lvrm_pool_recycles_total", "Frames returned to the pool by the final Release.",
			obs.TypeCounter, func(s pool.Stats) int64 { return s.Recycles })
		poolStat("lvrm_pool_outstanding", "Pooled frames currently held by the pipeline (gets minus recycles). Returns to zero at quiesce: VRI teardown hands queued frames off or releases them under a drain counter, so a persistent nonzero value is a leak bug.",
			obs.TypeGauge, func(s pool.Stats) int64 { return s.Outstanding })
	}

	// Per-source ingest accounting, for adapters fed by an untrusted wire.
	if pm, ok := l.cfg.Adapter.(netio.PeerMeter); ok {
		adapterName := l.cfg.Adapter.Name()
		peerStat := func(name, help string, val func(netio.PeerStat) int64) {
			reg.Collect(name, help, obs.TypeCounter, func(emit func(obs.Sample)) {
				for _, p := range pm.PeerStats() {
					emit(obs.Sample{
						Labels: []obs.Label{
							obs.L("adapter", adapterName),
							obs.L("peer", p.Addr),
						},
						Value: float64(val(p)),
					})
				}
			})
		}
		peerStat("lvrm_adapter_peer_frames_total", "Frames accepted from this source address (peer=\"other\" aggregates sources beyond the tracking bound).",
			func(p netio.PeerStat) int64 { return p.Frames })
		peerStat("lvrm_adapter_peer_bytes_total", "Frame bytes accepted from this source address.",
			func(p netio.PeerStat) int64 { return p.Bytes })
		peerStat("lvrm_adapter_peer_drops_total", "Datagrams from this source rejected at the adapter boundary (runt, oversize, or capture-ring overflow).",
			func(p netio.PeerStat) int64 { return p.Drops })
	}
}

// initVRObs registers the per-VR hot-path instruments — the dispatch-wait
// histogram and the queue-depth high-water gauge — and hands the VR the
// tracer for sampled balancer decisions. Called under vrsMu from AddVR.
func (l *LVRM) initVRObs(v *VR) {
	v.tracer = l.ins.tracer
	if l.ins.reg == nil {
		return
	}
	label := obs.L("vr", v.cfg.Name)
	v.waitHist = l.ins.reg.Histogram("lvrm_dispatch_wait_nanoseconds",
		"Wait per data frame from its burst's receive time to its dequeue at the VRI: the frames ahead of it in the burst plus its time in the VRI input queue.",
		nil, label)
	v.depthHWM = l.ins.reg.Gauge("lvrm_vr_queue_depth_high_water",
		"Highest input-queue depth any of the VR's VRIs has reached.", label)
}
