package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"lvrm/internal/core"
	"lvrm/internal/ipc"
	"lvrm/internal/rib"
)

const (
	pacedRate   = 200000 // frames/s offered in the open loop
	minSetups   = 9      // set-ups per untraced run: at least this many,
	maxSetups   = 101    // and more while they are short, up to setupBudget in all;
	setupBudget = 500 * time.Millisecond
	rounds      = 12 // each round: parallel saturation, serial saturation, paced
	satSlices   = 6  // per round
	pacedSlices = 8  // per round
	procsPar    = 2  // GOMAXPROCS of the parallel saturation and the paced phase
	procsSerial = 1  // GOMAXPROCS of the serial saturation phase
	stopWithin  = 5 * time.Second
)

// runner carries one workload run: its inputs, its books, and (traced runs
// only) the span log and probes.
type runner struct {
	w       *workload
	seed    int64
	seconds float64
	in      *inputs
	log     io.Writer
	spans   *spanLog
	probes  *probes

	offered, failed int64 // over every instance this run built
	failsBy         [nFailClasses]int64
	problems        []string
	cal             []float64 // calibration kernel results, Mops
	last            counters  // taken at the most recent teardown
	depth           depthStats
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// share of the run's --seconds as a duration.
func (r *runner) share(x float64) time.Duration {
	return time.Duration(x * r.seconds * float64(time.Second))
}

func (r *runner) warmFor() time.Duration { return min(time.Second, r.share(0.1)) }

// setUp is what setup_s times: build the tables, core.New, the AddVRs,
// Runtime.Start, and one full pass of every flow template delivered, so that
// flow installs and the FIB build land here and not in the rates. It runs at
// GOMAXPROCS=1 and is timed in CPU seconds the process was given, which is
// wall-clock time on a core nobody steals from.
func (r *runner) setUp(d decor) (inst *instance, cpu, wall time.Duration, err error) {
	runtime.GC() // every set-up starts from a collected heap
	runtime.GOMAXPROCS(procsSerial)
	t0, c0 := time.Now(), cpuNs()
	if inst, err = build(r.w, r.in, d, true); err != nil {
		return nil, 0, 0, err
	}
	inst.rt.Start()
	a := inst.load
	pass := int64(len(r.in.tmpl))
	a.limit.Store(pass)
	a.setMode(modeClosed)
	ok := a.waitSettled(pass, 30*time.Second)
	cpu, wall = time.Duration(cpuNs()-c0), time.Since(t0)
	if !ok || !a.quiesce(stopWithin) {
		r.problem("set-up: first pass not delivered (%d of %d)", a.settled.Load(), pass)
	}
	a.limit.Store(math.MaxInt64)
	return inst, cpu, wall, nil
}

// counters is what the program's own books say when an instance is torn down.
type counters struct {
	inDrops, outDrops, engineDrops, ipcDrops int64
	sendErrors, unclassified                 int64
	flowHits, flowLookups, flowOverflows     int64
	flowPinned                               int
	poolGets, poolHits, poolOutstanding      int64
	ribGenerations                           uint64
	ribRejected                              int64
}

func (r *runner) tearDown(inst *instance) {
	a := inst.load
	a.quiesce(stopWithin)
	if inst.rt != nil && !inst.rt.StopWithin(stopWithin) {
		r.problem("Runtime.StopWithin(%v) was not clean", stopWithin)
	}
	a.closeBooks()
	if n := a.latDropped.Load(); n != 0 {
		r.problem("%d latency samples did not fit their slice's buffer", n)
	}
	r.offered += a.offered.Load()
	r.failed += a.failed()
	for i := range a.fails {
		r.failsBy[i] += a.fails[i].Load()
	}
	var c counters
	st := inst.lvrm.Stats()
	c.sendErrors, c.unclassified = st.SendErrors, st.Unclassified
	for _, v := range inst.lvrm.VRs() {
		c.inDrops += v.InDrops()
		if fs, ok := v.FlowStats(); ok {
			c.flowHits += fs.Hits
			c.flowLookups += fs.Hits + fs.Misses + fs.Refreshes + fs.Rebalances + fs.Refusals + fs.Overflows
			c.flowOverflows += fs.Overflows
			c.flowPinned += v.FlowTable().Len()
		}
		for _, vri := range v.VRIs() {
			c.outDrops += vri.OutDrops()
			c.engineDrops += vri.EngineDrops()
			c.ipcDrops += ipc.DropsOf(vri.Data.In) + ipc.DropsOf(vri.Data.Out) +
				ipc.DropsOf(vri.Control.In) + ipc.DropsOf(vri.Control.Out)
		}
	}
	ps := inst.pool.Stats()
	c.poolGets, c.poolHits, c.poolOutstanding = ps.Gets, ps.Hits, ps.Outstanding
	if inst.rib != nil {
		rs := inst.rib.Stats()
		c.ribGenerations, c.ribRejected = rs.Generation, rs.Rejected
	}
	if c.poolOutstanding != 0 {
		r.problem("pool outstanding %d after stop", c.poolOutstanding)
	}
	if c.ribRejected != 0 {
		r.problem("rib rejected %d events", c.ribRejected)
	}
	r.last = c
}

// phase is one measured stretch of a live run, cut into slices. Stretches of
// the same kind from every round are appended into one phase.
type phase struct {
	mfps      []float64 // per slice: frames delivered per wall microsecond
	cpuMfps   []float64 // per slice: frames per microsecond of CPU time the process was given, per P
	unstolen  []float64 // per slice: mfps with the stolen time that delayed the slice taken out
	latP50us  []float64 // paced, per slice
	preP50us  []float64 // traced paced, per slice: due -> engine entry
	postP50us []float64 // traced paced, per slice: engine exit -> Send
	p99us     []float64 // paced, per stretch
	p999us    []float64
	samples   int
	frames    int64
	mallocs   uint64
	gcPause   time.Duration
	duration  time.Duration
}

// nsPerTick is the unit of /proc/stat: USER_HZ is 100 on every Linux.
const nsPerTick = 1e7

// cpuNs is the CPU time this process has been given so far. The kernel
// keeps stolen time out of it (CONFIG_PARAVIRT_TIME_ACCOUNTING).
func cpuNs() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// depthStats is the 1 kHz queue-depth sampling of traced live phases.
type depthStats struct {
	n, inSum, outSum int64
	inMax            int
}

func (r *runner) sampleDepth(inst *instance) {
	in, out := 0, 0
	for _, v := range inst.lvrm.VRs() {
		for _, vri := range v.VRIs() {
			in += vri.PendingData()
			out += vri.Data.Out.Len()
		}
	}
	r.depth.n++
	r.depth.inSum += int64(in)
	r.depth.outSum += int64(out)
	r.depth.inMax = max(r.depth.inMax, in)
}

// measure drives the generator in the given mode for n slices and appends
// what each slice delivered to ph. The main goroutine only sleeps and reads
// atomics; on traced runs it also samples queue depths once a millisecond.
func (r *runner) measure(ph *phase, inst *instance, label string, procs int, mode int32, n int, slice time.Duration) {
	runtime.GOMAXPROCS(procs)
	closePhase := r.spans.open(spanPhase, label)
	a := inst.load
	if mode == modePaced {
		a.periodNs = int64(time.Second) / pacedRate
		a.stampTrace = r.probes != nil
		if len(a.lat) != n {
			a.lat = make([][]uint32, n)
			perSlice := int(slice.Seconds()*pacedRate*1.25) + 2*pacedWindow
			for i := range a.lat {
				a.lat[i] = make([]uint32, 0, perSlice)
			}
		}
		for i := range a.lat {
			a.lat[i] = a.lat[i][:0]
		}
		a.pacedBase = a.offered.Load()
		a.anchor = nowNs()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var preMarks, postMarks []int64 // traced paced: where each slice's stage samples begin
	stages := mode == modePaced && r.probes != nil
	a.slice.Store(0)
	a.setMode(mode)
	start := nowNs()
	t, d, c := start, a.delivered(), cpuNs()
	_, stolen := cpuTimes()
	for i := 0; i < n; i++ {
		closeSlice := r.spans.open(spanSlice, fmt.Sprintf("%s/%d", label, i))
		deadline := start + int64(i+1)*int64(slice)
		if r.probes == nil {
			time.Sleep(time.Duration(deadline - nowNs()))
		} else {
			for nowNs() < deadline {
				time.Sleep(time.Millisecond)
				r.sampleDepth(inst)
			}
		}
		a.slice.Store(int32(min(i+1, n-1)))
		if stages {
			preMarks, postMarks = append(preMarks, r.probes.pre.n.Load()), append(postMarks, a.post.n.Load())
		}
		t1, d1, c1 := nowNs(), a.delivered(), cpuNs()
		_, stolen1 := cpuTimes()
		mfps, cpu, steal := float64(d1-d)/float64(t1-t)*1e3, float64(max(c1-c, 1)), float64(stolen1-stolen)*nsPerTick
		ph.mfps = append(ph.mfps, mfps)
		ph.cpuMfps = append(ph.cpuMfps, float64(d1-d)/cpu*1e3*float64(procs))
		ph.unstolen = append(ph.unstolen, mfps*(cpu+2*steal)/(cpu+steal))
		stolen = stolen1
		ph.frames += d1 - d
		t, d, c = t1, d1, c1
		closeSlice()
	}
	ph.duration += time.Duration(t - start)
	if !a.quiesce(stopWithin) {
		r.problem("%s: %d frames still in flight %v after the generator stopped", label, a.offered.Load()-a.settled.Load(), stopWithin)
	}
	runtime.ReadMemStats(&ms1)
	ph.mallocs += ms1.Mallocs - ms0.Mallocs
	ph.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if mode == modePaced {
		var all []uint32
		for _, s := range a.lat {
			slices.Sort(s)
			if len(s) > 0 {
				ph.latP50us = append(ph.latP50us, quantile(s, 0.5)/1e3)
			}
			all = append(all, s...)
		}
		slices.Sort(all)
		ph.samples += len(all)
		ph.p99us = append(ph.p99us, quantile(all, 0.99)/1e3)
		ph.p999us = append(ph.p999us, quantile(all, 0.999)/1e3)
	}
	if stages {
		ph.preP50us = append(ph.preP50us, r.probes.pre.medians(preMarks)...)
		ph.postP50us = append(ph.postP50us, a.post.medians(postMarks)...)
	}
	closePhase()
}

// warm runs the closed loop unmeasured.
func (r *runner) warm(inst *instance, d time.Duration) {
	runtime.GOMAXPROCS(procsPar)
	inst.load.setMode(modeClosed)
	time.Sleep(d)
	inst.load.quiesce(stopWithin)
}

// calSink keeps the calibration kernel's result alive.
var calSink uint64

var calBuf = make([]uint64, 1<<17) // 1 MiB: in L2, out of L1

// calibrate runs a fixed 50 ms compute-and-memory kernel and records how
// many million operations it got through: a witness of what the host gave
// this process around each phase, to tell a slow run from a slow host.
func (r *runner) calibrate() {
	const budget = 50 * time.Millisecond
	if r.seconds < 2 {
		return // smoke runs: the kernel would outweigh the phases
	}
	x, ops := uint64(88172645463325252), 0
	start := nowNs()
	for nowNs()-start < int64(budget) {
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			calBuf[x&(1<<17-1)] += x
		}
		ops += 4096
	}
	calSink += x
	r.cal = append(r.cal, float64(ops)/float64(nowNs()-start)*1e3)
}

// churner is the fib-churn control goroutine: every 5 ms it applies the
// route events that have come due and publishes a FIB generation.
type churner struct {
	rib   *rib.RIB
	evs   []rib.TimedEvent
	vris  []*core.VRIAdapter
	spans *spanLog // nil on untraced runs: no convergence wait
	stop  chan struct{}
	done  chan struct{}

	applied, publishes int
	applyNs, publishNs int64
	converge           []uint32 // ns from Publish returning to every VRI pinning the generation
	exhausted          bool
}

func startChurn(inst *instance, spans *spanLog) *churner {
	if !inst.w.churn {
		return nil
	}
	c := &churner{
		rib: inst.rib, evs: inst.in.churn, spans: spans,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	for _, v := range inst.lvrm.VRs() {
		c.vris = append(c.vris, v.VRIs()...)
	}
	go c.run()
	return c
}

func (c *churner) run() {
	defer close(c.done)
	tick := time.NewTicker(churnEvery)
	defer tick.Stop()
	start, i := time.Now(), 0
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		due := time.Since(start)
		t0 := nowNs()
		first := i
		for i < len(c.evs) && c.evs[i].At <= due {
			// A rejected event is counted by RIB.Stats and fails the run.
			_ = c.rib.Apply(c.evs[i].Ev)
			i++
		}
		t1 := nowNs()
		changed := c.rib.Publish()
		t2 := nowNs()
		c.exhausted = i == len(c.evs)
		c.applied += i - first
		c.applyNs += t1 - t0
		if changed == 0 {
			continue
		}
		c.publishes++
		c.publishNs += t2 - t1
		if c.spans == nil {
			continue
		}
		gen := c.rib.FIB().Generation()
		t3 := t2
		for !c.pinned(gen) { // give up at the next tick; the sample says so
			if t3 = nowNs(); t3-t2 > int64(churnEvery) {
				break
			}
			runtime.Gosched()
		}
		c.converge = append(c.converge, uint32(t3-t2))
		c.spans.add(span{name: spanRIBApply, start: t0, end: t1, frames: int32(i - first)})
		c.spans.add(span{name: spanRIBPublish, start: t1, end: t2, frames: int32(changed)})
		c.spans.add(span{name: spanRIBConverge, start: t2, end: t3})
	}
}

func (c *churner) pinned(gen uint64) bool {
	for _, a := range c.vris {
		if a.RouteGeneration() < gen {
			return false
		}
	}
	return true
}

// halt stops the control goroutine and waits for it.
func (c *churner) halt(r *runner) {
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
	if c.exhausted {
		r.problem("route-event trace ran out before the run ended")
	}
}

// quartiles of xs as statistics.quantiles(xs, n=4) gives them in Python (the
// exclusive method), so that spreads printed here match the driver's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// rank is the value the share p of xs lie below.
func rank(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, p)
}

// The three estimators. The host only ever takes time away from a slice, so
// each figure is read off the side of its slices the host spoilt least; see
// README.md, "Steadiness", for the runs behind each choice.

// fwdOf is fwd_mfps: the upper quartile of the slices' wall-clock rates, each
// with the stolen time that delayed it taken out. The threads of a slice
// wanted cpu+steal of CPU time and were given cpu. The closed loop always has
// exactly one thread on its critical path, so that path's share of the wanted
// time is clean/(cpu+steal), where clean is how long the slice would have
// taken undisturbed; stolen time delays the slice only where it hits that
// thread: wall = clean + steal*clean/(cpu+steal). Solved for clean, the rate
// frames/clean is frames/wall * (cpu+2*steal)/(cpu+steal): the wall-clock
// rate when nothing is stolen. fwdSerialOf is the case of one P, where every
// running thread is the critical path.
func fwdOf(ph *phase) float64 { return rank(ph.unstolen, 0.75) }

// fwdSerialOf is fwd_serial_mfps: the upper quartile of the slices' rates per
// second of CPU time the process was given, which is wall-clock Mfps on a
// core nobody steals from.
func fwdSerialOf(ph *phase) float64 { return rank(ph.cpuMfps, 0.75) }

// latOf is lat_p50_us: the lower octile over slices of each slice's median.
func latOf(ph *phase) float64 { return rank(ph.latP50us, 0.125) }

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quantile of a sorted sample, nearest rank.
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)])
}

// heapMB is HeapAlloc after two collections, with the generator idle.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// result is what one run of one workload reports.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Correct  bool               `json:"correct"`
	Offered  int64              `json:"frames_offered"`
	Failed   int64              `json:"frames_failed"`
	FailedBy map[string]int64   `json:"failed_by,omitempty"`
	Problems []string           `json:"problems,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	// Detail holds what the medians were taken over.
	Detail   map[string][]float64 `json:"detail,omitempty"`
	CalMops  float64              `json:"cal_mops"`
	Steal    float64              `json:"steal_share"`
	SpanFile string               `json:"span_file,omitempty"`
}

func (r *runner) finish(res *result) {
	res.Workload, res.Seed, res.Seconds = r.w.name, r.seed, r.seconds
	res.Offered, res.Failed = r.offered, r.failed
	if r.failed != 0 {
		r.problem("%d of %d frames failed", r.failed, r.offered)
		res.FailedBy = map[string]int64{}
		for i, n := range r.failsBy {
			if n != 0 {
				res.FailedBy[failNames[i]] = n
			}
		}
	}
	res.Problems = r.problems
	res.Correct = len(r.problems) == 0
	if len(r.cal) > 0 {
		res.CalMops = median(r.cal)
	}
}

// runUntraced measures the end-to-end metrics, every decorator off.
func (r *runner) runUntraced() (*result, error) {
	res := &result{Metrics: map[string]float64{}, Detail: map[string][]float64{}}
	var inst *instance
	var setups, setupsWall []float64
	for began := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(began) < setupBudget); {
		if inst != nil {
			r.tearDown(inst)
		}
		next, cpu, wall, err := r.setUp(decor{})
		if err != nil {
			return nil, err
		}
		inst = next
		setups, setupsWall = append(setups, cpu.Seconds()), append(setupsWall, wall.Seconds())
	}
	churn := startChurn(inst, nil)
	r.warm(inst, r.warmFor())
	heap := heapMB()
	r.warm(inst, r.warmFor()/4) // refill what the collections emptied
	var par, ser, paced phase
	satSlice, pacedSlice := r.share(0.3)/(rounds*satSlices), r.share(0.4)/(rounds*pacedSlices)
	for i := 0; i < rounds; i++ {
		r.calibrate()
		r.measure(&par, inst, "saturation", procsPar, modeClosed, satSlices, satSlice)
		r.measure(&ser, inst, "serial", procsSerial, modeClosed, satSlices, satSlice)
		r.measure(&paced, inst, "paced", procsPar, modePaced, pacedSlices, pacedSlice)
	}
	r.calibrate()
	churn.halt(r)
	r.tearDown(inst)

	res.Metrics["fwd_mfps"] = fwdOf(&par)
	res.Metrics["fwd_serial_mfps"] = fwdSerialOf(&ser)
	res.Metrics["lat_p50_us"] = latOf(&paced)
	res.Metrics["heap_mb"] = heap
	res.Metrics["setup_s"] = median(setups)
	res.Detail["fwd_mfps"], res.Detail["fwd_serial_mfps"] = par.unstolen, ser.cpuMfps
	res.Detail["fwd_mfps.wall"], res.Detail["fwd_mfps.cpu"], res.Detail["fwd_serial_mfps.wall"] = par.mfps, par.cpuMfps, ser.mfps
	res.Detail["lat_p50_us"], res.Detail["setup_s"], res.Detail["setup_s.wall"] = paced.latP50us, setups, setupsWall
	res.Detail["cal_mops"] = r.cal
	res.Detail["lat_tail_us"] = []float64{median(paced.p99us), median(paced.p999us), float64(paced.samples)}
	if paced.samples == 0 {
		r.problem("paced phase recorded no latency sample")
	}
	r.finish(res)
	return res, nil
}
