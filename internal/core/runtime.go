package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lvrm/internal/vr"
)

// Runtime drives an LVRM instance with real goroutines, standing in for the
// paper's user-space deployment: the monitor loop runs on one goroutine (as
// the LVRM process pinned to its core), all connected to the VRIs by the
// lock-free queues. Who consumes a VRI's queues follows one rule, read off the
// VR's live VRI count alone: the VR's only live instance runs to completion on
// the monitor goroutine, stepped once per pass between dispatch and relay, and
// a VR with two or more live instances gets one worker goroutine per VRI (as
// a vfork()ed VRI process pinned to its core). The hand-overs run in the
// lifecycle hooks, and between passes every live VRI has exactly one
// consumer (DESIGN.md §11). Every VRI's incoming rings have exactly one
// producer, the monitor: MoveVRI and BroadcastRouteUpdate post their work to
// it rather than run it on the caller's goroutine.
//
// Go's runtime cannot pin goroutines to physical cores, so the "binding" is
// logical: the one-VRI-per-core discipline and the sibling-first preference
// are still enforced by the allocator, and the performance consequences of
// placement are the testbed's job, not the live runtime's.
type Runtime struct {
	lvrm *LVRM

	// ControlHandler, if set, is invoked on the VRI's consumer goroutine —
	// the monitor or the VRI's worker — for every control event it consumes.
	ControlHandler func(*VR, *VRIAdapter, *ControlEvent)

	// BurnCost makes a VRI's consumer busy-spin for each quantum's simulated
	// cost, turning the cost model into real CPU load (useful to
	// demonstrate load-aware allocation live). A VRI the monitor consumes
	// burns the monitor's core.
	BurnCost bool

	// draining flips the monitor loop into relay-only mode during
	// StopWithin: no ingest, no allocation pass, so the pipeline empties
	// monotonically while the VRIs' consumers keep consuming.
	draining atomic.Bool

	// requests queues calls from other goroutines for the monitor to run
	// between passes (see call). Each caller waits for its own request, so
	// the queue holds at most one per concurrent caller; 16 is more callers
	// than any in the tree, and a full queue fails the call fast.
	requests chan *request

	mu      sync.Mutex
	workers map[*VRIAdapter]vriWorker
	// paused holds the VRIs between OnPause and OnResume: mid-transplant, the
	// monitor stages frames onto them, so no hook may give them a consumer.
	paused   map[*VRIAdapter]bool
	stopped  chan struct{}
	monDone  chan struct{}
	wg       sync.WaitGroup
	started  bool
	stopping bool
}

// vriWorker tracks one VRI goroutine: stop asks it to exit, done closes when
// it has. The done channel is what lets teardown JOIN the worker before the
// monitor drains the instance's queues — the rings allow only one consumer.
type vriWorker struct {
	stop chan struct{}
	done chan struct{}
}

// NewRuntime wraps an LVRM instance and installs its lifecycle hooks. VRIs
// spawned before the runtime starts get their consumers when Start scans.
func NewRuntime(l *LVRM) *Runtime {
	r := &Runtime{
		lvrm:     l,
		requests: make(chan *request, 16),
		workers:  make(map[*VRIAdapter]vriWorker),
		paused:   make(map[*VRIAdapter]bool),
		stopped:  make(chan struct{}),
	}
	// A spawn may take the VR from one instance to two, and a destroy from
	// two to one: either way the VR's consumers are re-assigned. OnDestroy
	// first takes the detached instance's consumer away, since the drain
	// that follows needs the monitor to be its only one.
	l.OnSpawn = func(v *VR, _ *VRIAdapter) { r.assign(v) }
	l.OnDestroy = func(v *VR, a *VRIAdapter) { r.stopVRI(a); r.assign(v) }
	// Split, fold and move pause a VRI around the partition transplant:
	// pausing takes its consumer away (so the monitor's stagePre is
	// race-free) and no hook gives it one back until resume assigns it. A
	// new worker's goroutine creation is the happens-before edge that
	// publishes the staged frames to it.
	l.OnPause = func(_ *VR, a *VRIAdapter) { r.setPaused(a, true); r.stopVRI(a) }
	l.OnResume = func(v *VR, a *VRIAdapter) { r.setPaused(a, false); r.assign(v) }
	return r
}

// LVRM returns the wrapped monitor.
func (r *Runtime) LVRM() *LVRM { return r.lvrm }

// Start assigns every live VRI its consumer and launches the monitor
// goroutine. Start after Stop restarts the runtime: it rescans the live VRI
// set (allocation may have changed it while stopped) and launches a fresh
// monitor goroutine. Start during a concurrent Stop is a no-op — the caller
// must let Stop finish before restarting.
func (r *Runtime) Start() {
	r.mu.Lock()
	if r.started || r.stopping {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.stopped = make(chan struct{})
	r.monDone = make(chan struct{})
	stopped, monDone := r.stopped, r.monDone
	r.mu.Unlock()

	for _, v := range r.lvrm.VRs() {
		r.assign(v)
	}
	r.wg.Add(1)
	go func() {
		defer close(monDone)
		r.monitorLoop(stopped)
	}()
}

// Stop halts the monitor and all VRI goroutines and waits for them. It does
// not drain: frames still queued stay queued (the VRIs remain Running, so a
// later Start resumes them). Use StopWithin for a graceful drain. Stop on a
// stopped runtime — or concurrently with another Stop — is a no-op.
func (r *Runtime) Stop() {
	r.mu.Lock()
	if !r.started || r.stopping {
		r.mu.Unlock()
		return
	}
	r.stopping = true
	close(r.stopped)
	monDone := r.monDone
	r.mu.Unlock()
	// Join the monitor BEFORE tearing down the worker bookkeeping: the
	// monitor may be mid allocation pass, and a replica split/fold (or a
	// teardown drain) in flight pauses and joins workers through r.workers.
	// Yanking the map from under it would skip those joins and leave a live
	// worker racing the monitor's residue drain on a single-consumer ring.
	// The monitor only observes r.stopped between passes, so by the time
	// monDone closes any in-flight transplant has completed. (The join is
	// outside r.mu: that pass may call OnSpawn -> startVRI, which needs the
	// lock.)
	<-monDone
	r.mu.Lock()
	for a, w := range r.workers {
		close(w.stop)
		delete(r.workers, a)
	}
	r.mu.Unlock()
	r.wg.Wait()
	// The monitor is gone, and with it the consumer of every VRI it ran.
	for _, v := range r.lvrm.VRs() {
		for _, a := range v.VRIs() {
			a.inline.Store(nil)
		}
	}
	r.mu.Lock()
	r.started = false
	r.stopping = false
	r.mu.Unlock()
}

// StopWithin gracefully drains the pipeline and then stops the runtime,
// bounded by the deadline d. It reports whether the drain completed cleanly:
// true means every VRI queue (data and control, both directions) was
// observed empty — no frame was abandoned in flight.
//
// The sequence: flip the monitor to relay-only mode (ingest stops, every
// VRI's consumer keeps consuming), poll until the queues quiesce or the
// deadline passes, halt all goroutines, and — on the clean path — run one final
// single-threaded sweep to settle anything that was mid-step when the
// monitor halted. The VRIs stay Running throughout, so Start can resume the
// runtime afterwards. On timeout the residue stays queued — Ledger().InFlight
// counts it — and the caller decides (lvrmd reports it and exits non-zero).
func (r *Runtime) StopWithin(d time.Duration) bool {
	r.mu.Lock()
	if !r.started || r.stopping {
		r.mu.Unlock()
		return true // nothing is flowing; trivially clean
	}
	r.mu.Unlock()

	r.draining.Store(true)
	deadline := time.Now().Add(d)
	clean := false
	for {
		if r.quiesced() {
			clean = true
			break
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	r.Stop()
	r.draining.Store(false)
	if !clean {
		return false
	}
	// Post-stop settle: every goroutine is joined, so this caller owns all
	// queues. A worker that was mid-step when quiesced() sampled the queues
	// may have published one last output after the monitor's final relay
	// pass — sweep until nothing moves, then re-judge.
	for r.sweepOnce() {
	}
	return r.quiesced()
}

// quiesced reports whether every VRI queue (data and control, both
// directions) is empty. Advisory under concurrency — StopWithin re-checks
// after the goroutines are joined, when the answer is exact.
func (r *Runtime) quiesced() bool {
	for _, v := range r.lvrm.VRs() {
		for _, a := range v.VRIs() {
			if a.PendingData() != 0 || a.Data.Out.Len() != 0 ||
				a.Control.In.Len() != 0 || a.Control.Out.Len() != 0 {
				return false
			}
		}
	}
	return true
}

// sweepOnce single-threadedly steps every VRI and relays the results once,
// reporting whether any work was done. Only safe after Stop has joined all
// goroutines: the caller is then the sole producer and consumer everywhere.
func (r *Runtime) sweepOnce() bool {
	work := false
	l := r.lvrm
	for _, v := range l.VRs() {
		for _, a := range v.VRIs() {
			if res := a.StepBatch(l.cfg.Clock(), l.cfg.VRIBatch, r.onControl(v, a)); res.Did() {
				work = true
			}
		}
	}
	return r.pass(false) || work
}

// The monitor's idle rule (DESIGN.md §11). A pass that finds no work polls
// again at once when the process has a P to spare for the monitor, reading the
// clock once per idleClockEvery passes, until idleBudget has gone by. Without
// a spare P every idle pass yields it. Either way the stretch then parks:
// after idleYields yielding passes, or when the budget runs out.
const (
	idleYields = 256
	// Reading the clock and running MaybeAllocate on every polling pass
	// instead read bare-min lat_p50_us higher in 16 of 20 paired 24 s runs,
	// by 4 % in the median pair (BENCHMARKS.md).
	idleClockEvery = 64
	// idleBudget is what idleYields yielding passes took on a 2-vCPU KVM
	// guest at GOMAXPROCS=2 with four one-VRI VRs (the median of 400
	// stretches; p10 to p90 was 110 to 230 µs).
	idleBudget = 160 * time.Microsecond
)

// spareP reports whether procs Ps leave one for the monitor beside its
// workers, each of which wants a P of its own.
func spareP(procs, workers int) bool { return procs > 1+workers }

// monitorLoop is the LVRM process: serve queued requests, run passes, and run
// the periodic allocation pass when a pass finds nothing to do. While draining
// it passes without ingest — nothing new is admitted, the allocator holds
// still, and requests wait.
func (r *Runtime) monitorLoop(stopped chan struct{}) {
	defer r.wg.Done()
	// Any request still queued when the monitor exits can never run — its
	// serialization point is gone. Fail the callers instead of hanging them.
	defer r.failRequests()
	// poll: this idle stretch polls on a spare P; parked: its budget ran out.
	idle, locked, poll, parked := 0, false, false, false
	var since int64 // the clock when a polling stretch began
	defer func() {
		if locked {
			runtime.UnlockOSThread()
		}
	}()
	for {
		select {
		case <-stopped:
			return
		default:
		}
		r.lvrm.ins.monitorPolls.Inc()
		draining := r.draining.Load()
		// Run queued requests on every pass — here, on the dispatch goroutine,
		// because that serialization is what makes a partition transplant
		// race-free and keeps the monitor the only producer onto every VRI's
		// incoming rings. Serving before the pass keeps a request's latency
		// bounded under sustained load instead of waiting for a quiet tick.
		// Never during a drain, which must not spawn or destroy instances
		// under the shutdown.
		if !draining && r.serveRequests() {
			idle = 0
		}
		if r.pass(!draining) {
			idle = 0
			// A busy monitor keeps its OS thread. Go preempts a goroutine
			// that runs 10 ms without yielding by queueing it globally and
			// waking an idle P, whose thread may take it: with a P idle —
			// every VR on one VRI leaves one — the monitor and the VRIs it
			// runs inline would hop to the other CPU's cold caches every few
			// preemptions. The lock is dropped before the idle yields below,
			// where a locked Gosched would be a hand-off between threads.
			if !locked {
				runtime.LockOSThread()
				locked = true
			}
			continue
		}
		r.lvrm.ins.monitorIdle.Inc()
		idle++
		if idle == 1 {
			// GOMAXPROCS takes the scheduler lock, so once per stretch.
			poll, parked = spareP(runtime.GOMAXPROCS(0), r.workerCount()), false
		}
		if poll && idle%idleClockEvery != 1 {
			continue
		}
		now := r.lvrm.cfg.Clock()
		if !draining {
			// Allocation must still run while traffic is quiet so that idle
			// VRs give their cores back.
			r.lvrm.MaybeAllocate(now)
		}
		if poll {
			if idle == 1 {
				since = now
			}
			if now-since < int64(idleBudget) {
				continue
			}
			// The budget stands in for the yielding passes: the rest of
			// the stretch parks.
			poll, parked = false, true
		}
		if locked {
			runtime.UnlockOSThread()
			locked = false
		}
		r.lvrm.ins.monitorYields.Inc()
		// A 50 µs sleep can last a millisecond under coarse timer slack, so
		// the monitor spins four times a worker's idle passes before it
		// parks: with every VR on one VRI it is the only goroutine left.
		if parked || idle > idleYields {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// workerCount is the number of VRI worker goroutines.
func (r *Runtime) workerCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// pass is one monitor iteration: relay control events, receive and dispatch
// up to 64 frames (unless draining), run one quantum of every VRI the monitor
// consumes, and relay what the VRIs finished. It reports whether any work was
// done.
func (r *Runtime) pass(ingest bool) bool {
	l := r.lvrm
	work := l.RelayControl() > 0
	if ingest && l.RecvDispatchBatch(64) > 0 {
		work = true
	}
	if r.stepInline() {
		work = true
	}
	if l.RelayOut(0) > 0 {
		work = true
	}
	return work
}

// stepInline runs one quantum — the same Config.VRIBatch a worker takes per
// wake-up — of every VRI the monitor consumes that has work, and reports
// whether any did. A backlog the quantum cannot clear stays in the VRI's
// ring, where the balancer and the split/fold controller see it. The quanta
// share one clock read, taken when the first of them has work.
func (r *Runtime) stepInline() bool {
	var now int64
	clocked, work := false, false
	for _, v := range r.lvrm.vrList() {
		vris := v.vriList()
		if len(vris) != 1 {
			continue
		}
		a := vris[0]
		onControl := a.inline.Load()
		if onControl == nil || !a.hasWork() {
			continue
		}
		if !clocked {
			now, clocked = r.lvrm.cfg.Clock(), true
		}
		if r.step(a, now, *onControl) {
			work = true
		}
	}
	return work
}

// step runs one quantum of a at time now on the calling goroutine and, with
// BurnCost set, spins there for its simulated cost. It reports whether any
// work was done.
func (r *Runtime) step(a *VRIAdapter, now int64, onControl func(*ControlEvent)) bool {
	res := a.StepBatch(now, r.lvrm.cfg.VRIBatch, onControl)
	if r.BurnCost && res.Cost > 0 {
		burn(res.Cost)
	}
	return res.Did()
}

// assign gives every live VRI of v that is not paused the consumer the rule
// names: the monitor when it is the VR's only live instance, a worker
// goroutine of its own otherwise. It runs in the lifecycle hooks and in Start —
// on the monitor goroutine, on AddVR's before the VR is published, or before
// the monitor starts — so taking a VRI off the monitor never races a pass
// stepping it. Before Start it does nothing.
func (r *Runtime) assign(v *VR) {
	vris := v.vriList()
	if len(vris) != 1 {
		for _, a := range vris {
			r.startVRI(v, a)
		}
		return
	}
	a := vris[0]
	r.mu.Lock()
	take := r.started && !r.paused[a] && a.inline.Load() == nil
	r.mu.Unlock()
	if take {
		r.stopVRI(a)
		onControl := r.onControl(v, a)
		a.inline.Store(&onControl)
	}
}

// setPaused marks a as between OnPause and OnResume, or clears the mark.
func (r *Runtime) setPaused(a *VRIAdapter, paused bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if paused {
		r.paused[a] = true
	} else {
		delete(r.paused, a)
	}
}

// startVRI hands a to a worker goroutine of its own, taking it off the
// monitor. A paused VRI, one that already has a worker, and any VRI before
// Start are left as they are.
func (r *Runtime) startVRI(v *VR, a *VRIAdapter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started || r.paused[a] {
		return // Start, or the resume, assigns it
	}
	if _, dup := r.workers[a]; dup {
		return
	}
	a.inline.Store(nil)
	w := vriWorker{stop: make(chan struct{}), done: make(chan struct{})}
	r.workers[a] = w
	r.wg.Add(1)
	go r.vriLoop(v, a, w, r.stopped)
}

// stopVRI takes a's consumer away: it drops the monitor's claim, or signals
// the worker goroutine to exit and JOINS it. When stopVRI returns, whoever
// called it — the monitor, running a hook — is the instance's only consumer,
// which is what makes a drain's or a transplant's dequeues legal on the
// single-consumer rings. The wait happens outside r.mu so the exiting worker
// never deadlocks against a concurrent start/stop.
func (r *Runtime) stopVRI(a *VRIAdapter) {
	a.inline.Store(nil)
	r.mu.Lock()
	w, ok := r.workers[a]
	if ok {
		delete(r.workers, a)
	}
	r.mu.Unlock()
	if !ok {
		return
	}
	close(w.stop)
	<-w.done
}

// onControl binds the runtime's ControlHandler to one VRI, for StepBatch.
func (r *Runtime) onControl(v *VR, a *VRIAdapter) func(*ControlEvent) {
	return func(ev *ControlEvent) {
		if r.ControlHandler != nil {
			r.ControlHandler(v, a, ev)
		}
	}
}

// vriLoop is one VRI process: control events first, then data frames, up to
// Config.VRIBatch of either per wakeup (one cursor publication per batch on
// the SPSC rings; at 1, the paper's one item per iteration).
func (r *Runtime) vriLoop(v *VR, a *VRIAdapter, w vriWorker, stopped chan struct{}) {
	defer r.wg.Done()
	defer close(w.done)
	onControl := r.onControl(v, a)
	idle := 0
	for {
		// Two one-case polls, not one select over both channels: a single
		// case with default compiles to a lock-free receive attempt, while two
		// cases go through selectgo, which locks both channels every pass.
		select {
		case <-w.stop:
			return
		default:
		}
		select {
		case <-stopped:
			return
		default:
		}
		// The clock is read only for a quantum with work to do: an idle spin
		// reads queue lengths, not the clock.
		if a.hasWork() && r.step(a, r.lvrm.cfg.Clock(), onControl) {
			idle = 0
			continue
		}
		idle++
		if idle > 64 {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// burn busy-spins for approximately d, emulating per-frame CPU load.
func burn(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// request is one call posted to the monitor: run executes on the monitor
// goroutine between passes, and done then receives nil — or the error that
// kept run from executing.
type request struct {
	run  func()
	done chan error
}

var (
	// errRuntimeStopped is returned to callers whose request the monitor
	// never got to run.
	errRuntimeStopped = errors.New("core: runtime stopped before the request ran")
	errQueueFull      = errors.New("core: monitor request queue is full")
)

// call runs fn where it may touch what the monitor owns — the VRI set, and
// the incoming rings the monitor alone produces onto — and waits for it. While
// the runtime runs, fn is posted to the monitor loop, which runs it between
// passes; with the runtime stopped the caller owns every queue, so fn runs
// directly. A request posted before a Stop is answered either way: the
// monitor runs it, or fails it with errRuntimeStopped on its way out.
func (r *Runtime) call(fn func()) error {
	req := &request{run: fn, done: make(chan error, 1)}
	r.mu.Lock()
	switch {
	case !r.started:
		r.mu.Unlock()
		fn()
		return nil
	case r.stopping:
		r.mu.Unlock()
		return errRuntimeStopped
	}
	select {
	case r.requests <- req:
	default:
		r.mu.Unlock()
		return errQueueFull
	}
	r.mu.Unlock()
	return <-req.done
}

// serveRequests runs every queued request and reports whether any ran.
// Monitor goroutine only.
func (r *Runtime) serveRequests() bool {
	served := false
	for {
		select {
		case req := <-r.requests:
			req.run()
			req.done <- nil
			served = true
		default:
			return served
		}
	}
}

// failRequests answers every queued request with errRuntimeStopped.
func (r *Runtime) failRequests() {
	for {
		select {
		case req := <-r.requests:
			req.done <- errRuntimeStopped
		default:
			return
		}
	}
}

// MoveVRI live-migrates the identified VRI to targetCore (negative = the
// best free core) and blocks until the move completes or fails. Safe to call
// from any goroutine: the move runs on the monitor goroutine (see call), the
// serialization that makes the mid-stream partition transplant race-free.
func (r *Runtime) MoveVRI(vrID, vriID, targetCore int) (rep MigrationReport, err error) {
	if cerr := r.call(func() { rep, err = r.lvrm.MoveVRI(vrID, vriID, targetCore) }); cerr != nil {
		return MigrationReport{}, cerr
	}
	return rep, err
}

// BroadcastRouteUpdate is LVRM.BroadcastRouteUpdate for a caller on any
// goroutine: the monitor enqueues the control events (see call), as it is the
// only producer onto a VRI's incoming control queue. It blocks until they are
// queued and returns how many VRIs were addressed.
func (r *Runtime) BroadcastRouteUpdate(v *VR, u vr.RouteUpdate) (n int, err error) {
	err = r.call(func() { n = r.lvrm.BroadcastRouteUpdate(v, u) })
	return n, err
}

// wallEpoch is the process's start, with its monotonic reading, and
// wallEpochNs the same instant in Unix nanoseconds.
var (
	wallEpoch   = time.Now()
	wallEpochNs = wallEpoch.UnixNano()
)

// WallClock is the live runtime's conventional Config.Clock: monotonic
// Unix-epoch nanoseconds, the Unix time at process start plus the monotonic
// time since, which costs one clock read where time.Now costs two. It never
// steps back when the wall clock is set, and drifts from it by what the
// setting moved.
func WallClock() int64 { return wallEpochNs + int64(time.Since(wallEpoch)) }
