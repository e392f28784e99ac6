package main

// metricDef names one reported metric. The names, units, directions and
// bounds here are the ones in BENCHMARK.json; bench_test.go holds the two
// together. how and moves are documentation that travels with the number:
// where a per-layer figure comes from (L live traced run, I inline pass, R
// replay, see layers.go) and which end-to-end metric it should move.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the median it may worsen by
	how, moves         string
}

var endToEnd = []metricDef{
	{name: "fwd_mfps", unit: "Mfps", better: "higher", bound: 0.25,
		how: "frames delivered per wall-clock second at GOMAXPROCS=2, closed loop of 512 in flight, stolen time on the critical path taken out: the upper quartile of 72 slices of 100 ms"},
	{name: "fwd_serial_mfps", unit: "Mfps", better: "higher", bound: 0.20,
		how: "the same at GOMAXPROCS=1 (monitor and VRI goroutines share one P), per second of CPU time the process was given: the upper quartile of 72 slices"},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25,
		how: "open loop at 200 kfps: each 100 ms slice's median due->Send latency; the lower octile of 96 slices"},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.10,
		how: "runtime.MemStats.HeapAlloc after warm-up and two runtime.GC()"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		how: "tables + core.New + AddVRs + Runtime.Start + one pass of every flow delivered, at GOMAXPROCS=1 in CPU seconds: the median of 9 to 101 set-ups"},
}

var perLayer = []metricDef{
	{name: "core.classify_ns", unit: "ns", better: "lower", how: "R LVRM.Classify", moves: "fwd_* on bare-min (4-VR scan); ~nothing on 1-VR workloads"},
	{name: "core.dispatch_ns", unit: "ns", better: "lower", how: "I span around LVRM.RecvDispatchBatch minus load.gen_ns, per frame", moves: "fwd_* on bare-min (locked path) and flow-fib (flow path)"},
	{name: "core.step_ns", unit: "ns", better: "lower", how: "I span around VRIAdapter.StepBatch minus vr.process_ns", moves: "fwd_* on all; largest share on bare-min"},
	{name: "core.relay_ns", unit: "ns", better: "lower", how: "I span around LVRM.RelayOut minus load.sink_ns", moves: "fwd_* on bare-min"},
	{name: "core.inline_ns", unit: "ns", better: "lower", how: "I whole pass per frame minus generator and sink: the budget the three rows above plus vr.process_ns sum to within 10 %", moves: "fwd_serial_mfps on all"},
	{name: "core.handoff_ns", unit: "ns", better: "lower", how: "1e3/fwd_serial_mfps - core.inline_ns - load.gen_ns - load.sink_ns: goroutine yield and ring visibility", moves: "fwd_serial_mfps, lat_p50_us"},
	{name: "core.parallel_ns", unit: "ns", better: "lower", how: "1e3/fwd_mfps - 1e3/fwd_serial_mfps", moves: "fwd_mfps only"},
	{name: "core.clock_reads_per_frame", unit: "count", better: "lower", how: "L counting Config.Clock decorator, saturation phases", moves: "fwd_* on bare-min"},
	{name: "core.pre_engine_p50_us", unit: "us", better: "lower", how: "L paced: due -> engine entry, 1 frame in 16", moves: "lat_p50_us on all"},
	{name: "core.post_engine_p50_us", unit: "us", better: "lower", how: "L paced: engine exit -> Send, 1 frame in 16", moves: "lat_p50_us on all"},
	{name: "core.in_drops", unit: "count", better: "lower", how: "L VR.InDrops", moves: "frames_failed; 0 in saturation"},
	{name: "core.out_drops", unit: "count", better: "lower", how: "L VRIAdapter.OutDrops", moves: "frames_failed; 0 in saturation"},
	{name: "core.send_errors", unit: "count", better: "lower", how: "L LVRM.Stats", moves: "frames_failed"},
	{name: "core.unclassified", unit: "count", better: "lower", how: "L LVRM.Stats", moves: "frames_failed"},
	{name: "balance.pick_ns", unit: "ns", better: "lower", how: "L VRConfig.Balancer decorator, 1 pick in 16", moves: "fwd_* on bare-min, click-imix"},
	{name: "balance.picks_per_frame", unit: "count", better: "lower", how: "L VRConfig.Balancer decorator", moves: "fwd_* on bare-min, click-imix; 0 on flow-fib"},
	{name: "flow.assign_ns", unit: "ns", better: "lower", how: "R flow.KeyOf + Table.Assign, hit path, every flow key", moves: "fwd_* on flow-fib, fib-churn; 0 elsewhere"},
	{name: "flow.install_ns", unit: "ns", better: "lower", how: "R miss path on a fresh table", moves: "setup_s on flow-fib"},
	{name: "flow.hit_share", unit: "share", better: "higher", how: "L VR.FlowStats", moves: "fwd_* on flow-fib"},
	{name: "flow.pinned", unit: "count", better: "higher", how: "L flow.Table.Len", moves: "heap_mb on flow-fib"},
	{name: "flow.overflows", unit: "count", better: "lower", how: "L VR.FlowStats; must be 0", moves: "frames_failed"},
	{name: "ipc.hop_ns", unit: "ns", better: "lower", how: "R EnqueueBatch(16) + DequeueBatch(16) on the workload's in-ring kind, per frame", moves: "fwd_serial_mfps on all"},
	{name: "ipc.in_depth_mean", unit: "frames", better: "lower", how: "L PendingData() sampled at 1 kHz", moves: "lat_p50_us: a fuller ring is a later frame"},
	{name: "ipc.in_depth_max", unit: "frames", better: "lower", how: "L PendingData() sampled at 1 kHz", moves: "lat_p50_us"},
	{name: "ipc.out_depth_mean", unit: "frames", better: "lower", how: "L Data.Out.Len() sampled at 1 kHz", moves: "lat_p50_us"},
	{name: "ipc.drops", unit: "count", better: "lower", how: "L ipc.DropsOf over every ring", moves: "frames_failed"},
	{name: "vr.process_ns", unit: "ns", better: "lower", how: "I engine decorator, 1 Process call in 16", moves: "fwd_* on click-imix (dominant); small on bare-min"},
	{name: "vr.engine_share", unit: "share", better: "lower", how: "vr.process_ns / core.inline_ns", moves: "says whether a workload is engine-bound"},
	{name: "vr.engine_drops", unit: "count", better: "lower", how: "L VRIAdapter.EngineDrops", moves: "frames_failed"},
	{name: "route.lookup_ns", unit: "ns", better: "lower", how: "R route.Table.Lookup", moves: "fwd_* on bare-min, click-imix; 0 on the FIB workloads"},
	{name: "rib.lookup_ns", unit: "ns", better: "lower", how: "R rib.Gen.Lookup", moves: "fwd_* on flow-fib, fib-churn; 0 elsewhere"},
	{name: "rib.apply_ns", unit: "ns", better: "lower", how: "L control goroutine, per RIB.Apply", moves: "fwd_*, lat_p50_us on fib-churn only"},
	{name: "rib.publish_us", unit: "us", better: "lower", how: "L control goroutine, per RIB.Publish that changed a route", moves: "fwd_*, lat_p50_us on fib-churn only"},
	{name: "rib.generations", unit: "count", better: "higher", how: "L RIB.Stats", moves: "none: how much churn the run saw"},
	{name: "rib.events_rejected", unit: "count", better: "lower", how: "L RIB.Stats; must be 0", moves: "correct"},
	{name: "rib.converge_p50_us", unit: "us", better: "lower", how: "L Publish return -> every VRIAdapter.RouteGeneration() reaches the generation", moves: "lat_p50_us on fib-churn"},
	{name: "packet.parse_ns", unit: "ns", better: "lower", how: "R packet.ParseIPv4 + packet.FlowOf", moves: "fwd_* on all: parsed in classify, key and engine"},
	{name: "pool.copy_release_ns", unit: "ns", better: "lower", how: "R Pool.Copy + Frame.Release", moves: "fwd_* on all"},
	{name: "pool.hit_share", unit: "share", better: "higher", how: "L Pool.Stats", moves: "fwd_*, heap_mb"},
	{name: "pool.outstanding_end", unit: "count", better: "lower", how: "L Pool.Stats after StopWithin; must be 0", moves: "correct"},
	{name: "pool.allocs_per_frame", unit: "count", better: "lower", how: "L MemStats.Mallocs over the untraced serial phase", moves: "fwd_*, heap_mb on click-imix"},
	{name: "pool.gc_pause_share", unit: "share", better: "lower", how: "L MemStats.PauseTotalNs over the untraced serial phase", moves: "fwd_* on click-imix"},
	{name: "netio.recv_polls_per_frame", unit: "count", better: "lower", how: "L counts in loadAdapter.RecvBatch", moves: "fwd_*: batching"},
	{name: "netio.recv_empty_share", unit: "share", better: "lower", how: "L counts in loadAdapter.RecvBatch", moves: "lat_p50_us: spin against park"},
	{name: "netio.chan_hop_ns", unit: "ns", better: "lower", how: "R ChanAdapter RX -> RecvBatch, Send -> TX", moves: "none yet: lvrmd's default adapter, for a later workload"},
	{name: "obs.overhead_share", unit: "share", better: "lower", how: "L 1 - fwd_serial_mfps / the same with Obs and Trace nil", moves: "fwd_serial_mfps on bare-min"},
	{name: "load.gen_ns", unit: "ns", better: "lower", how: "I time inside loadAdapter.RecvBatch per frame", moves: "none: the benchmark's own cost"},
	{name: "load.sink_ns", unit: "ns", better: "lower", how: "I time inside loadAdapter.Send, 1 call in 16", moves: "none: the benchmark's own cost"},
	{name: "load.cal_mops", unit: "Mops", better: "higher", how: "fixed 50 ms compute+memory kernel around every phase, median", moves: "none: host-noise witness"},
	{name: "load.max_late_us", unit: "us", better: "lower", how: "L paced: latest the generator ran behind a frame's due time", moves: "none: generator witness"},
	{name: "load.late_resets", unit: "count", better: "lower", how: "L paced: schedule re-anchored after falling 2048 frames behind", moves: "none: generator witness"},
	{name: "load.lat_p99_us", unit: "us", better: "lower", how: "L paced, all slices pooled", moves: "none: diagnostic, tails are host-bound here"},
	{name: "load.lat_p999_us", unit: "us", better: "lower", how: "L paced, all slices pooled", moves: "none: diagnostic"},
	{name: "load.lat_samples", unit: "count", better: "higher", how: "L paced: latency samples behind the percentiles", moves: "none"},
	{name: "trace.overhead_share", unit: "share", better: "lower", how: "1 - traced/untraced fwd_serial_mfps", moves: "none: what the decorators cost"},
	{name: "trace.spans", unit: "count", better: "higher", how: "spans written to the span file", moves: "none"},
}
