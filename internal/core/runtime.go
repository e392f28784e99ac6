package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime drives an LVRM instance with real goroutines, standing in for the
// paper's user-space deployment: the monitor loop runs on one goroutine (as
// the LVRM process pinned to its core) and every VRI runs on its own
// goroutine (as a vfork()ed VRI process pinned to its core), all connected
// by the lock-free queues.
//
// Go's runtime cannot pin goroutines to physical cores, so the "binding" is
// logical: the one-VRI-per-core discipline and the sibling-first preference
// are still enforced by the allocator, and the performance consequences of
// placement are the testbed's job, not the live runtime's.
type Runtime struct {
	lvrm *LVRM

	// ControlHandler, if set, is invoked on the VRI goroutine for every
	// control event the VRI consumes.
	ControlHandler func(*VR, *VRIAdapter, *ControlEvent)

	// BurnCost makes VRI goroutines busy-spin for each frame's simulated
	// cost, turning the cost model into real CPU load (useful to
	// demonstrate load-aware allocation live).
	BurnCost bool

	// draining flips the monitor loop into relay-only mode during
	// StopWithin: no ingest, no allocation pass, so the pipeline empties
	// monotonically while the workers keep consuming.
	draining atomic.Bool

	mu       sync.Mutex
	workers  map[*VRIAdapter]vriWorker
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

// NewRuntime wraps an LVRM instance. It installs spawn/destroy hooks, so it
// must be created before VRIs exist (i.e. before AddVR) or the initial VRIs
// will not get worker goroutines until Start re-scans.
func NewRuntime(l *LVRM) *Runtime {
	r := &Runtime{
		lvrm:    l,
		workers: make(map[*VRIAdapter]vriWorker),
		stopped: make(chan struct{}),
	}
	l.OnSpawn = func(v *VR, a *VRIAdapter) { r.startVRI(v, a) }
	l.OnDestroy = func(v *VR, a *VRIAdapter) { r.stopVRI(a) }
	// Replica split/fold pauses a VRI's consumer around the partition
	// transplant: stopVRI joins the worker (making the monitor the sole
	// consumer, so stagePre is race-free), startVRI relaunches it. The
	// goroutine creation is the happens-before edge that publishes the
	// staged frames to the new worker.
	l.OnPause = func(v *VR, a *VRIAdapter) { r.stopVRI(a) }
	l.OnResume = func(v *VR, a *VRIAdapter) { r.startVRI(v, a) }
	return r
}

// LVRM returns the wrapped monitor.
func (r *Runtime) LVRM() *LVRM { return r.lvrm }

// Start launches the monitor goroutine and workers for any VRIs that were
// spawned before Start. Start after Stop restarts the runtime: it rescans the
// live VRI set (allocation may have changed it while stopped) and launches a
// fresh monitor goroutine. Start during a concurrent Stop is a no-op — the
// caller must let Stop finish before restarting.
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
		for _, a := range v.VRIs() {
			r.startVRI(v, a)
		}
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
// The sequence: flip the monitor to relay-only mode (ingest stops, workers
// keep consuming), poll until the queues quiesce or the deadline passes,
// halt all goroutines, and — on the clean path — run one final
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
	if l.DrainPollOnce() {
		work = true
	}
	return work
}

// monitorLoop is the LVRM process: poll the socket adapter, dispatch,
// relay, serve queued live-migration requests, and run the periodic
// allocation pass. While draining it relays only — nothing new is admitted,
// the allocator holds still, and moves wait.
func (r *Runtime) monitorLoop(stopped chan struct{}) {
	defer r.wg.Done()
	// Any move still queued when the monitor exits can never run — its
	// serialization point is gone. Fail the callers instead of hanging them.
	defer r.lvrm.failPendingMoves(errRuntimeStopped)
	idle := 0
	for {
		select {
		case <-stopped:
			return
		default:
		}
		r.lvrm.ins.monitorPolls.Inc()
		if r.draining.Load() {
			if r.lvrm.DrainPollOnce() {
				idle = 0
				continue
			}
		} else {
			// Execute queued live moves on every pass — here, on the
			// dispatch goroutine, because that serialization is what makes
			// the partition transplant race-free. Serving before the poll
			// keeps a move's latency bounded under sustained load instead
			// of waiting for a quiet tick. Never during a drain, which must
			// not spawn or destroy instances under the shutdown.
			if r.lvrm.ServeMoves() {
				idle = 0
			}
			if r.lvrm.PollOnce(64) {
				idle = 0
				continue
			}
			// Allocation must still run while traffic is quiet so that idle
			// VRs give their cores back.
			r.lvrm.MaybeAllocate(r.lvrm.cfg.Clock())
		}
		r.lvrm.ins.monitorIdle.Inc()
		idle++
		if idle > 64 {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// startVRI launches the worker goroutine for a VRI.
func (r *Runtime) startVRI(v *VR, a *VRIAdapter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		return // Start will launch it
	}
	if _, dup := r.workers[a]; dup {
		return
	}
	w := vriWorker{stop: make(chan struct{}), done: make(chan struct{})}
	r.workers[a] = w
	r.wg.Add(1)
	go r.vriLoop(v, a, w, r.stopped)
}

// stopVRI signals a VRI goroutine to exit and JOINS it. Called as the
// OnDestroy hook, after the instance is detached but before its residue is
// drained: when stopVRI returns, the monitor is the instance's only
// remaining consumer, which is what makes the drain's dequeues legal on the
// single-consumer rings. The wait happens outside r.mu so the exiting worker
// never deadlocks against a concurrent start/stop.
func (r *Runtime) stopVRI(a *VRIAdapter) {
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
	batch := r.lvrm.cfg.VRIBatch
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
		if res := a.StepBatch(r.lvrm.cfg.Clock(), batch, onControl); res.Did() {
			idle = 0
			if r.BurnCost && res.Cost > 0 {
				burn(res.Cost)
			}
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

// MoveVRI live-migrates the identified VRI to targetCore (negative = the
// best free core) and blocks until the move completes or fails. Safe to call
// from any goroutine: the request is posted to the monitor loop, which
// executes it at its next pass on the dispatch goroutine — the serialization
// that makes the mid-stream partition transplant race-free. With the runtime
// stopped, the caller owns every queue, so the move runs directly.
func (r *Runtime) MoveVRI(vrID, vriID, targetCore int) (MigrationReport, error) {
	r.mu.Lock()
	running := r.started && !r.stopping
	monDone := r.monDone
	r.mu.Unlock()
	if !running {
		return r.lvrm.MoveVRI(vrID, vriID, targetCore)
	}
	req := &moveRequest{
		vrID: vrID, vriID: vriID, core: targetCore,
		done: make(chan moveResult, 1),
	}
	if !r.lvrm.RequestMove(req) {
		return MigrationReport{}, errors.New("core: live-move queue is full")
	}
	select {
	case res := <-req.done:
		return res.rep, res.err
	case <-monDone:
		// The monitor exited; it failed every queued request on the way
		// out, so a non-blocking recheck either finds our answer or proves
		// the request was answered with the shutdown error.
		select {
		case res := <-req.done:
			return res.rep, res.err
		default:
			return MigrationReport{}, errRuntimeStopped
		}
	}
}

// WallClock is the live runtime's conventional Config.Clock.
func WallClock() int64 { return time.Now().UnixNano() }
