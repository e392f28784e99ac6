package main

import (
	"cmp"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"lvrm/internal/core"
	"lvrm/internal/flow"
	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/route"
)

// The traced run. Per-layer numbers come from three places:
//
//	L  the live runtime run again with the Clock, engine and balancer
//	   decorators on (probes), plus the program's own counters;
//	I  an inline pass: RecvDispatchBatch -> StepBatch per VRI -> RelayOut on
//	   one goroutine with no Runtime, a span around each call;
//	R  replays of the workload's seeded frame, key and address sequences
//	   through one public function, timed in chunks of 256 calls.
//
// The same run first repeats both saturation phases with every decorator
// off, so that the derived rows (handoff, parallel cost, tracing and
// observability overhead) compare like with like.
func (r *runner) runTraced(outDir string) (*result, error) {
	res := &result{Trace: true, Metrics: map[string]float64{}, Detail: map[string][]float64{}}
	m := res.Metrics
	for _, d := range perLayer {
		m[d.name] = 0 // a layer the workload bypasses stays at 0
	}
	closeRun := r.spans.open(spanRun, r.w.name)
	const n = 24 // slices per stretch, about as long as an untraced run's
	slice := r.share(0.1) / n

	// Decorators off: the reference rates.
	inst, _, _, err := r.setUp(decor{})
	if err != nil {
		return nil, err
	}
	churn := startChurn(inst, nil)
	r.warm(inst, r.warmFor())
	r.calibrate()
	var plainPar, plainSer, noObs, tracedSer, tracedPar, paced phase
	r.measure(&plainPar, inst, "plain/saturation", procsPar, modeClosed, n, slice)
	r.measure(&plainSer, inst, "plain/serial", procsSerial, modeClosed, n, slice)
	churn.halt(r)
	r.tearDown(inst)
	fwd, fwdSerial := fwdOf(&plainPar), fwdSerialOf(&plainSer)

	// Obs and Trace nil: what the observability layer costs the serial rate.
	if inst, _, _, err = r.setUp(decor{noObs: true}); err != nil {
		return nil, err
	}
	churn = startChurn(inst, nil)
	r.warm(inst, r.warmFor())
	r.calibrate()
	r.measure(&noObs, inst, "noobs/serial", procsSerial, modeClosed, n, slice)
	churn.halt(r)
	r.tearDown(inst)
	m["obs.overhead_share"] = 1 - fwdSerial/fwdSerialOf(&noObs)

	// L: decorators on.
	p := r.probes
	if inst, _, _, err = r.setUp(p.decor()); err != nil {
		return nil, err
	}
	churn = startChurn(inst, r.spans)
	r.warm(inst, r.warmFor())
	a := inst.load
	r.calibrate()
	clock0, frames0, polls0, empty0 := p.clockReads.Load(), a.settled.Load(), a.polls.Load(), a.emptyPolls.Load()
	r.measure(&tracedSer, inst, "traced/serial", procsSerial, modeClosed, n, slice)
	r.measure(&tracedPar, inst, "traced/saturation", procsPar, modeClosed, n, slice)
	frames := float64(a.settled.Load() - frames0)
	m["core.clock_reads_per_frame"] = float64(p.clockReads.Load()-clock0) / frames
	m["netio.recv_polls_per_frame"] = float64(a.polls.Load()-polls0) / frames
	m["netio.recv_empty_share"] = float64(a.emptyPolls.Load()-empty0) / float64(a.polls.Load()-polls0)
	m["balance.picks_per_frame"] = float64(p.picks.Load()) / float64(a.settled.Load())
	if n := p.pickSamp.Load(); n > 0 {
		m["balance.pick_ns"] = float64(p.pickNs.Load()) / float64(n)
	}
	m["trace.overhead_share"] = 1 - fwdSerialOf(&tracedSer)/fwdSerial
	m["pool.allocs_per_frame"] = float64(plainSer.mallocs) / float64(plainSer.frames)
	m["pool.gc_pause_share"] = plainSer.gcPause.Seconds() / plainSer.duration.Seconds()

	r.calibrate()
	samples := int(r.share(0.25).Seconds()*pacedRate/16) + 4096
	p.pre.reset(samples)
	a.post.reset(samples)
	r.measure(&paced, inst, "traced/paced", procsPar, modePaced, n, r.share(0.25)/n)
	// The stages of lat_p50_us, read the way it is: lower octile over slices.
	m["core.pre_engine_p50_us"] = rank(paced.preP50us, 0.125)
	m["core.post_engine_p50_us"] = rank(paced.postP50us, 0.125)
	m["load.lat_p99_us"], m["load.lat_p999_us"], m["load.lat_samples"] = median(paced.p99us), median(paced.p999us), float64(paced.samples)
	m["load.max_late_us"] = float64(a.maxLateNs.Load()) / 1e3
	m["load.late_resets"] = float64(a.lateResets.Load())
	if r.depth.n > 0 {
		m["ipc.in_depth_mean"] = float64(r.depth.inSum) / float64(r.depth.n)
		m["ipc.out_depth_mean"] = float64(r.depth.outSum) / float64(r.depth.n)
		m["ipc.in_depth_max"] = float64(r.depth.inMax)
	}
	r.calibrate()
	churn.halt(r)
	r.tearDown(inst)
	c := r.last
	m["core.in_drops"], m["core.out_drops"] = float64(c.inDrops), float64(c.outDrops)
	m["core.send_errors"], m["core.unclassified"] = float64(c.sendErrors), float64(c.unclassified)
	m["ipc.drops"], m["vr.engine_drops"] = float64(c.ipcDrops), float64(c.engineDrops)
	m["pool.hit_share"] = float64(c.poolHits) / float64(c.poolGets)
	m["pool.outstanding_end"] = float64(c.poolOutstanding)
	m["flow.pinned"], m["flow.overflows"] = float64(c.flowPinned), float64(c.flowOverflows)
	if c.flowLookups > 0 {
		m["flow.hit_share"] = float64(c.flowHits) / float64(c.flowLookups)
	}
	m["rib.generations"], m["rib.events_rejected"] = float64(c.ribGenerations), float64(c.ribRejected)
	if churn != nil {
		m["rib.apply_ns"] = float64(churn.applyNs) / float64(max(churn.applied, 1))
		m["rib.publish_us"] = float64(churn.publishNs) / float64(max(churn.publishes, 1)) / 1e3
		slices.Sort(churn.converge)
		m["rib.converge_p50_us"] = quantile(churn.converge, 0.5) / 1e3
	}
	liveEngineNs := p.engineMeanNs()

	// I: the inline pass, and the rows derived from it.
	if err := r.inline(m); err != nil {
		return nil, err
	}
	m["core.handoff_ns"] = 1e3/fwdSerial - m["core.inline_ns"] - m["load.gen_ns"] - m["load.sink_ns"]
	m["core.parallel_ns"] = 1e3/fwd - 1e3/fwdSerial

	// R: the replays.
	if err := r.replays(m); err != nil {
		return nil, err
	}
	closeRun()

	res.Detail["fwd_mfps"], res.Detail["fwd_serial_mfps"] = plainPar.unstolen, plainSer.cpuMfps
	res.Detail["fwd_serial_mfps.noobs"], res.Detail["fwd_serial_mfps.traced"] = noObs.cpuMfps, tracedSer.cpuMfps
	res.Detail["fwd_mfps.traced"] = tracedPar.mfps
	res.Detail["lat_p50_us.traced"] = paced.latP50us
	res.Detail["vr.process_ns.live"] = []float64{liveEngineNs}
	if len(r.cal) > 0 {
		m["load.cal_mops"] = median(r.cal)
	}
	m["trace.spans"] = float64(r.spans.count())
	res.SpanFile = filepath.Join(outDir, "trace-"+r.w.name+".jsonl")
	if err := r.spans.write(res.SpanFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if d := r.spans.dropped.Load(); d > 0 {
		fmt.Fprintf(r.log, "  note: span buffer full, %d spans not recorded\n", d)
	}
	r.finish(res)
	return res, nil
}

// inlineRows is the inline pass's budget over one chunk of it, ns per frame.
type inlineRows struct {
	gen, sink, process            float64 // the benchmark's generator and sink; Engine.Process
	dispatch, step, relay, inline float64 // the program's own time: inline = dispatch+step+relay+process
}

// inline drives the data path by hand on this goroutine: what the monitor
// and the VRI workers do, without the Runtime between them. A span goes
// around each public call; the generator and the sink time themselves, and
// the engine probe times one Process call in 16, so each row is the program's
// own time per frame. Like fwd_serial_mfps the rows are in CPU time (every
// wall-clock interval of a chunk is scaled by the share of the chunk the
// process was given) and read off the chunks the host spoilt least: the pass
// is cut into 24 chunks and the rows are those of the chunk at the lower
// quartile of inline ns per frame, one coherent set.
func (r *runner) inline(m map[string]float64) error {
	runtime.GOMAXPROCS(procsSerial)
	defer runtime.GOMAXPROCS(procsPar)
	p := newProbes(r.spans)
	d := p.decor()
	d.clock, d.balancer = nil, nil
	inst, err := build(r.w, r.in, d, false)
	if err != nil {
		return err
	}
	defer r.spans.open(spanPhase, "inline")()
	l, a := inst.lvrm, inst.load
	var vris []*core.VRIAdapter
	for _, v := range l.VRs() {
		vris = append(vris, v.VRIs()...)
	}
	a.setMode(modeClosed)
	iters := 0
	chunk := func(d time.Duration) (rows inlineRows, ok bool) {
		gen0, sink0, sinkN0, eng0, engN0 := a.genNs.Load(), a.sinkNs.Load(), a.sinkN.Load(), p.engineNs.Load(), p.engineN.Load()
		frames0, start, cpu0 := a.settled.Load(), nowNs(), cpuNs()
		var recvNs, stepNs, relayNs int64
		for t0 := start; t0 < start+int64(d); iters++ {
			n := l.RecvDispatchBatch(4 * batch)
			t1 := nowNs()
			for _, vri := range vris {
				for vri.StepBatch(core.WallClock(), batch, nil).Frames > 0 {
				}
			}
			t2 := nowNs()
			l.RelayOut(0)
			t3 := nowNs()
			recvNs, stepNs, relayNs = recvNs+t1-t0, stepNs+t2-t1, relayNs+t3-t2
			if iters&127 == 0 {
				r.spans.add(span{name: spanRecvDispatch, start: t0, end: t1, frames: int32(n)})
				r.spans.add(span{name: spanStep, start: t1, end: t2, frames: int32(n)})
				r.spans.add(span{name: spanRelay, start: t2, end: t3, frames: int32(n)})
			}
			t0 = t3
		}
		total := nowNs() - start
		given := float64(cpuNs()-cpu0) / float64(total)
		frames := float64(a.settled.Load()-frames0) / given
		if frames <= 0 {
			return rows, false
		}
		rows.gen = float64(a.genNs.Load()-gen0) / frames
		rows.sink = max(float64(a.sinkNs.Load()-sink0)/float64(max(a.sinkN.Load()-sinkN0, 1))-float64(p.timerNs), 0)
		rows.process = float64(p.engineNs.Load()-eng0) / float64(max(p.engineN.Load()-engN0, 1))
		rows.dispatch = float64(recvNs)/frames - rows.gen
		rows.step = float64(stepNs)/frames - rows.process
		rows.relay = float64(relayNs)/frames - rows.sink
		rows.inline = float64(total)/frames - rows.gen - rows.sink
		return rows, true
	}
	chunk(r.warmFor() / 2) // first pass of every flow, caches, pool
	const chunks = 24
	var all []inlineRows
	for i := 0; i < chunks; i++ {
		if rows, ok := chunk(r.share(0.1) / chunks); ok {
			all = append(all, rows)
		}
	}
	a.setMode(modeIdle)
	a.RecvBatch(nil) // no monitor polls this instance: acknowledge the idle mode by hand
	r.tearDown(inst)
	if len(all) == 0 {
		return fmt.Errorf("inline pass moved no frame")
	}
	slices.SortFunc(all, func(x, y inlineRows) int { return cmp.Compare(x.inline, y.inline) })
	rows := all[len(all)/4]
	m["load.gen_ns"], m["load.sink_ns"], m["vr.process_ns"] = rows.gen, rows.sink, rows.process
	m["core.dispatch_ns"], m["core.step_ns"], m["core.relay_ns"] = rows.dispatch, rows.step, rows.relay
	m["core.inline_ns"] = rows.inline
	m["vr.engine_share"] = rows.process / rows.inline
	sum := rows.dispatch + rows.step + rows.relay + rows.process
	if off := sum/rows.inline - 1; off < -0.1 || off > 0.1 {
		r.problem("inline budget: the four rows sum to %.1f ns, core.inline_ns is %.1f ns", sum, rows.inline)
	}
	return nil
}

var replaySink uint64

// replay times fn over the indices 0..n-1, again and again, in chunks of 256
// calls for at most the budget, and returns the median chunk's ns per call:
// a preempted chunk is an outlier the median ignores.
func replay(n int, budget time.Duration, fn func(i int)) float64 {
	const chunk = 256
	var per []float64
	i, deadline := 0, nowNs()+int64(budget)
	for len(per) < 8 || (nowNs() < deadline && len(per) < 1<<16) {
		t0 := nowNs()
		for k := 0; k < chunk; k++ {
			fn(i)
			if i++; i == n {
				i = 0
			}
		}
		per = append(per, float64(nowNs()-t0)/chunk)
	}
	return median(per)
}

// replays measures single public functions on the workload's own sequences.
// A layer the workload bypasses reports 0.
func (r *runner) replays(m map[string]float64) error {
	defer r.spans.open(spanPhase, "replays")()
	w, in := r.w, r.in
	n := len(in.tmpl)
	budget := r.share(0.1) / 12
	inst, err := build(w, in, decor{}, false)
	if err != nil {
		return err
	}

	m["core.classify_ns"] = replay(n, budget, func(i int) {
		if _, ok := inst.lvrm.Classify(&in.tmpl[i]); !ok {
			replaySink++
		}
	})
	m["packet.parse_ns"] = replay(n, budget, func(i int) {
		f := &in.tmpl[i]
		h, _, _ := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
		ft, _ := packet.FlowOf(f)
		replaySink += uint64(h.Dst) + uint64(ft.SrcPort)
	})
	p := pool.New()
	m["pool.copy_release_ns"] = replay(n, budget, func(i int) { p.Copy(&in.tmpl[i]).Release() })

	if w.flowDispatch {
		tbl := flow.NewTable(flowShards, flowTableCap/flowShards)
		keep, pick := func(int) bool { return true }, func() int { return 0 }
		// The miss path runs once per key, so one timed pass over a fresh table.
		t0 := nowNs()
		for i := range in.tmpl {
			tbl.Assign(flow.KeyOf(&in.tmpl[i]), t0, keep, pick)
		}
		m["flow.install_ns"] = float64(nowNs()-t0) / float64(n)
		m["flow.assign_ns"] = replay(n, budget, func(i int) {
			id, _ := tbl.Assign(flow.KeyOf(&in.tmpl[i]), t0, keep, pick)
			replaySink += uint64(id)
		})
	}

	// One hop = a frame pointer into the ring and out again, 16 at a time, on
	// the ring kind dispatch feeds on this workload.
	kind := ipc.LockFree
	if w.flowDispatch {
		kind = ipc.MultiProducer
	}
	q := ipc.New[*packet.Frame](kind, 4096)
	hop := make([]*packet.Frame, batch)
	for i := range hop {
		hop[i] = &in.tmpl[i%n]
	}
	m["ipc.hop_ns"] = replay(1, budget, func(int) {
		ipc.EnqueueBatch(q, hop)
		ipc.DequeueBatch(q, hop)
	}) / batch

	switch w.engine {
	case engineFIB:
		g := inst.rib.FIB().Snapshot()
		m["rib.lookup_ns"] = replay(n, budget, func(i int) {
			rt, _ := g.Lookup(in.dsts[i])
			replaySink += uint64(rt.OutIf)
		})
	default: // the static table, which StandardForwarder's LookupIPRoute also holds
		routes, err := route.LoadMapFile(strings.NewReader(staticMap))
		if err != nil {
			return err
		}
		m["route.lookup_ns"] = replay(n, budget, func(i int) {
			e, _ := routes.Lookup(in.dsts[i])
			replaySink += uint64(e.OutIf)
		})
	}

	// lvrmd's default adapter, which no end-to-end workload crosses yet.
	ca := netio.NewChanAdapter(64)
	one := make([]*packet.Frame, 1)
	m["netio.chan_hop_ns"] = replay(n, budget, func(i int) {
		ca.RX <- &in.tmpl[i]
		netio.RecvBatch(ca, one)
		_ = ca.Send(one[0])
		<-ca.TX
	})
	return nil
}
