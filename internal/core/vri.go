package core

import (
	"sync/atomic"
	"time"

	"lvrm/internal/estimate"
	"lvrm/internal/ipc"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/vr"
)

// cacheLine is the assumed size of a CPU cache line, as in internal/ipc.
const cacheLine = 64

// ControlEvent is a message one VRI sends to another through the control
// queues (e.g. to synchronize routing state, Section 3.7). LVRM relays the
// event from the source VRI's outgoing control queue to the destination
// VRI's incoming control queue. Control events always have priority over
// data frames at the receiving VRI.
type ControlEvent struct {
	// SrcVR and SrcVRI identify the sender.
	SrcVR, SrcVRI int
	// DstVR and DstVRI identify the receiver. The paper shares control
	// state among VRIs of the same VR, but cross-VR addressing is allowed
	// for user-specified protocols.
	DstVR, DstVRI int
	// Payload is the opaque message body, accessed like a datagram.
	Payload []byte
	// SentAt is the enqueue timestamp (ns), for latency measurement.
	SentAt int64
}

// VRIAdapter is the per-VRI state LVRM keeps (Section 3.4): the queue pairs
// that attach the VRI to LVRM, the load estimator it reports to the VRI
// monitor, and the engine that does the packet processing. In the paper a
// VRI is a separate process created with vfork(); here it is driven by the
// testbed (virtual time) or, live, by the Runtime: by the monitor goroutine
// while it is its VR's only instance, by a worker goroutine of its own
// otherwise.
type VRIAdapter struct {
	// ID is the VRI's identifier, unique within its VR across the VR's
	// lifetime (never reused, so stale flow-table pins can't mis-route).
	ID int
	// VRID is the owning VR's identifier.
	VRID int
	// Core is the CPU core this VRI is bound to.
	Core int

	// Data carries raw frames: In from LVRM to VRI, Out back.
	Data ipc.Pair[*packet.Frame]
	// Control carries control events, with priority over Data.
	Control ipc.Pair[*ControlEvent]

	// QueueEst is the EWMA queue-length estimate the VRI adapter reports
	// for load balancing (Figure 3.4 "queue length").
	QueueEst *estimate.QueueLength
	// SvcEst is the EWMA service-rate estimate the LVRM adapter reports
	// for dynamic-threshold core allocation (Section 3.6).
	SvcEst *estimate.ServiceRate

	// Engine is the VRI's packet processor.
	Engine vr.Engine

	// FreezeLoadOnRead reverts Load to the literal Figure 3.4 behaviour:
	// the queue-length estimate is only updated when a frame is dispatched
	// to this VRI, never refreshed when the balancer reads it. Exists for
	// the estimate-freshness ablation (experiment "a2"); leave false.
	FreezeLoadOnRead bool

	// state is the VRIState machine (see lifecycle.go); atomic because the
	// live runtime's VRI goroutine polls it while the monitor drains it.
	state      atomic.Int32
	processed  atomic.Int64
	engDrops   atomic.Int64
	outDrops   atomic.Int64
	ctlHandled atomic.Int64
	// migIn counts frames transplanted ONTO this instance by the migration
	// engine (staged residue from a split/fold/move, or ring hand-offs from
	// a teardown drain).
	migIn atomic.Int64

	// The fields between the two pads are written by the dispatching side
	// once per frame, while the counters above and the quantum state below
	// are written by the VRI's own core once per frame: on one cache line the
	// two cores would keep stealing it from each other, and whether they
	// share one would depend on where the allocator happened to put the
	// struct (its size class alternates between 0 and 32 mod 64). The pads
	// keep them apart at any alignment.
	_ [cacheLine]byte

	// handed counts frames given to this instance — dispatched to its input
	// ring or staged onto it by a migration — and settled the ones it is done
	// with: relayed out of Data.Out, dropped, or transplanted away. handed is
	// bumped before the frame becomes visible to the consumer and settled
	// only after the frame has left, so handed - settled never reads low;
	// owes is the one reader.
	handed  atomic.Int64
	settled atomic.Int64

	// runDepth and runRoom are dispatch's view of the input queue for the
	// run in progress, or for a drain's picks: depth and free slots, read
	// once by balanceTargets and counted locally as a run's frames are
	// placed. Monitor goroutine only, like the balancer state.
	runDepth, runRoom int

	_ [cacheLine]byte

	// loadFn is the bound runLoad method, created once at spawn so the
	// dispatch hot path can build balance targets without allocating a
	// method value per frame.
	loadFn func() float64

	// pinner is the engine's vr.RoutePinner, type-asserted once at spawn
	// so StepBatch pins the FIB generation without a per-quantum
	// interface assertion. Nil when the engine has no dynamic FIB.
	pinner vr.RoutePinner
	// batcher is the engine's vr.BatchEngine, asserted once at spawn like
	// pinner; when non-nil StepBatch hands it the whole quantum.
	batcher vr.BatchEngine
	// inline holds the Runtime's ControlHandler bound to this VRI while the
	// monitor goroutine consumes it; nil while a worker goroutine (or the
	// testbed, or nobody) does.
	inline atomic.Pointer[func(*ControlEvent)]
	// routeGen mirrors the last pinned generation for the scrape path
	// (lvrm_vri_route_generation); written only by the consumer side.
	routeGen atomic.Uint64

	// batchIn/batchOut are StepBatch's scratch buffers. StepBatch runs on
	// the consumer side only (the VRI's own goroutine or the
	// single-threaded testbed), so they need no synchronisation.
	batchIn  []*packet.Frame
	batchOut []*packet.Frame

	// pre is the transplant staging queue: frames moved here by a replica
	// split/fold are consumed BEFORE the data-in ring, because they were
	// dequeued (or re-routed) from a ring position strictly ahead of
	// anything dispatch can enqueue afterwards — consuming pre first is
	// what preserves per-flow order across a partition handoff. pre and
	// preHead are consumer-owned; the monitor only appends (stagePre)
	// while the consumer is paused, and the pause/resume join provides
	// the happens-before edge. preLen mirrors the occupancy for the
	// lock-free depth reads (PendingData) the balancer and metrics take.
	pre     []*packet.Frame
	preHead int
	preLen  atomic.Int32

	// waitHist, when non-nil, records dispatch→dequeue wait per data frame
	// (the VR's lvrm_dispatch_wait_nanoseconds histogram). The wait comes
	// free: dispatch stamps f.Timestamp and StepBatch already receives now.
	waitHist *obs.Histogram

	// SpawnedAt records when the VRI was created (ns).
	SpawnedAt int64
}

// State returns the VRI's lifecycle state.
func (a *VRIAdapter) State() VRIState { return VRIState(a.state.Load()) }

// Processed returns the number of data frames the VRI has handled.
func (a *VRIAdapter) Processed() int64 { return a.processed.Load() }

// EngineDrops returns frames dropped by the engine (no route, TTL, ...).
func (a *VRIAdapter) EngineDrops() int64 { return a.engDrops.Load() }

// OutDrops returns frames lost because the outgoing data queue was full.
func (a *VRIAdapter) OutDrops() int64 { return a.outDrops.Load() }

// ControlHandled returns the number of control events consumed.
func (a *VRIAdapter) ControlHandled() int64 { return a.ctlHandled.Load() }

// MigratedIn returns how many frames the migration engine has transplanted
// onto this instance.
func (a *VRIAdapter) MigratedIn() int64 { return a.migIn.Load() }

// RouteGeneration returns the FIB generation this VRI last pinned (0 when
// its engine has no dynamic FIB).
func (a *VRIAdapter) RouteGeneration() uint64 { return a.routeGen.Load() }

// stagePre appends a transplanted frame to the staging queue. Only the
// monitor calls it, and only while the VRI's consumer is paused (the live
// runtime joins the worker goroutine first; the testbed is single-threaded),
// so the append never races a takePre.
func (a *VRIAdapter) stagePre(f *packet.Frame) {
	a.pre = append(a.pre, f)
	a.preLen.Add(1)
}

// takePre pops the oldest staged frame, if any. Consumer-side only.
func (a *VRIAdapter) takePre() (*packet.Frame, bool) {
	if a.preHead >= len(a.pre) {
		return nil, false
	}
	f := a.pre[a.preHead]
	a.pre[a.preHead] = nil
	a.preHead++
	if a.preHead == len(a.pre) {
		a.pre = a.pre[:0]
		a.preHead = 0
	}
	a.preLen.Add(-1)
	return f, true
}

// NextStaged peeks the oldest staged transplant frame without consuming it.
// Consumer-side only (like takePre); the testbed uses it to size the relay
// cost of the frame about to be served.
func (a *VRIAdapter) NextStaged() (*packet.Frame, bool) {
	if a.preHead >= len(a.pre) {
		return nil, false
	}
	return a.pre[a.preHead], true
}

// PendingData is the VRI's true inbound data depth: staged transplant
// residue plus the data-in ring. Every load read — balancing, admission,
// split/fold decisions, depth metrics — uses this rather than the raw ring
// length, so a replica carrying a freshly transplanted partition is not
// mistaken for idle.
func (a *VRIAdapter) PendingData() int {
	return int(a.preLen.Load()) + a.Data.In.Len()
}

// hasWork reports whether a StepBatch quantum would find anything to take: a
// control event, a staged frame or a queued one.
func (a *VRIAdapter) hasWork() bool {
	return a.PendingData() > 0 || a.Control.In.Len() > 0
}

// runLoad returns the queue-length estimate JSQ reads when it picks, per
// frame or per flow. Reading the load also folds the queue
// occupancy (the run's local count, runDepth) into the EWMA — the VRI adapter
// reports a fresh estimate whenever the VRI monitor balances (Figure 3.4) —
// so a VRI whose queue has drained becomes attractive again even if it has
// not been dispatched to recently.
func (a *VRIAdapter) runLoad() float64 {
	if !a.FreezeLoadOnRead {
		a.QueueEst.Observe(a.runDepth)
	}
	return a.QueueEst.Estimate()
}

// hand enqueues f on the VRI's input ring, counting it handed first. It
// reports whether the ring took it; on refusal the caller keeps ownership.
func (a *VRIAdapter) hand(f *packet.Frame) bool {
	a.handed.Add(1)
	if a.Data.In.Enqueue(f) {
		return true
	}
	a.settled.Add(1)
	return false
}

// owes reports whether the VRI still holds frames handed to it: queued,
// dequeued into a StepBatch quantum, or finished and waiting in Data.Out for
// the relay. A flow may only leave a VRI that owes nothing — an empty input
// ring is not enough, the frames inside the quantum and the out-ring can
// still be overtaken. settled is read first, so a frame handed between the
// two reads errs towards true.
func (a *VRIAdapter) owes() bool {
	settled := a.settled.Load()
	return a.handed.Load() > settled
}

// StepBatchResult reports what one StepBatch call did: the simulated CPU
// cost of the work, how many control events and data frames were consumed,
// and the buffer bytes enqueued toward LVRM (what a relay of the whole
// quantum would transmit).
type StepBatchResult struct {
	Cost     time.Duration
	Control  int
	Frames   int
	OutBytes int
}

// Did reports whether any work was done.
func (r StepBatchResult) Did() bool { return r.Control+r.Frames > 0 }

// StepBatch performs one VRI scheduling quantum at virtual/wall time now.
// Control queues keep strict priority: if control events are pending it
// handles up to max of them and returns without touching data, so the next
// quantum re-checks control before any frame. Otherwise it takes up to max
// data frames in one queue operation — the batch dequeue publishes a single
// cursor release/acquire pair for the whole run of frames, and the processed
// outputs are enqueued toward LVRM the same way, the amortization the
// paper's Section 3.5 queues exist to enable. With max = 1 this is the
// paper's VRI loop: one control event or one frame per quantum. The caller
// (testbed or live runtime) owns charging the returned cost and pacing.
func (a *VRIAdapter) StepBatch(now int64, max int, onControl func(*ControlEvent)) StepBatchResult {
	var res StepBatchResult
	if VRIState(a.state.Load()) != VRIRunning {
		return res
	}
	// Pin the engine's FIB generation: every frame in the quantum resolves
	// against one routing epoch regardless of concurrent publishes.
	if a.pinner != nil {
		a.routeGen.Store(a.pinner.PinRoutes())
	}
	if max < 1 {
		max = 1
	}
	for res.Control < max {
		ev, ok := a.Control.In.Dequeue()
		if !ok {
			break
		}
		a.ctlHandled.Add(1)
		if onControl != nil {
			onControl(ev)
		}
		res.Control++
		res.Cost += ControlHandleCost
	}
	if res.Control > 0 {
		return res
	}
	if cap(a.batchIn) < max {
		a.batchIn = make([]*packet.Frame, max)
	}
	in := a.batchIn[:max]
	// Staged transplant residue predates everything in the ring; fill the
	// batch from it first so per-flow order survives a split/fold handoff.
	n := 0
	for n < max {
		f, ok := a.takePre()
		if !ok {
			break
		}
		in[n] = f
		n++
	}
	n += ipc.DequeueBatch(a.Data.In, in[n:])
	if n == 0 {
		return res
	}
	// Section 3.6's service-rate rule: the gap between consecutive
	// completions measures the service rate only while the queue stays
	// backed up, so the estimate is the VRI's capacity and not an echo of
	// the arrival rate. Every frame that had a successor behind it — later
	// in this batch or still queued — came off a backed-up queue, so it
	// measures capacity. The whole batch shares one timestamp, so the gap
	// since the previous completion is spread across the backed-up
	// completions (ObserveN) rather than observed as zero-length gaps; a
	// batch that drains the queue ends the busy period.
	backed := n - 1
	if a.PendingData() > 0 {
		backed = n
	}
	if backed > 0 {
		a.SvcEst.ObserveN(now, backed)
	}
	if backed < n {
		a.SvcEst.Break()
	}
	a.observeWaits(in[:n], now)
	out := a.batchOut[:0]
	drops := 0
	if a.batcher != nil {
		res.Cost += a.batcher.ProcessBatch(in[:n])
	}
	for i, f := range in[:n] {
		in[i] = nil
		var err error
		if a.batcher == nil {
			var cost time.Duration
			cost, err = a.Engine.Process(f)
			res.Cost += cost
		}
		if err != nil || f.Out == vr.Drop {
			drops++
			f.Release()
			continue
		}
		out = append(out, f)
	}
	a.processed.Add(int64(n))
	if drops > 0 {
		a.engDrops.Add(int64(drops))
	}
	res.Frames = n
	// Sum the buffer lengths before the enqueue: once a frame is in the
	// out-ring the monitor may relay it and the pool recycle it. A rejected
	// tail is still ours, so its bytes are taken back out afterwards.
	for _, f := range out {
		res.OutBytes += len(f.Buf)
	}
	accepted := ipc.EnqueueBatch(a.Data.Out, out)
	if rejected := out[accepted:]; len(rejected) > 0 {
		a.outDrops.Add(int64(len(rejected)))
		for _, f := range rejected {
			res.OutBytes -= len(f.Buf)
			f.Release()
		}
	}
	// Engine drops and out-ring rejects are settled here, after the fact;
	// the accepted frames settle when the monitor relays them.
	if gone := n - accepted; gone > 0 {
		a.settled.Add(int64(gone))
	}
	clear(out) // release references for GC; the queue owns them now
	a.batchOut = out[:0]
	return res
}

// observeWaits records each frame's dispatch→dequeue wait. Frames of one
// received burst share a Timestamp and the quantum shares now, so runs of
// equal wait — typically the whole quantum — go in as one ObserveN.
func (a *VRIAdapter) observeWaits(frames []*packet.Frame, now int64) {
	if a.waitHist == nil {
		return
	}
	var wait int64
	run := 0
	for _, f := range frames {
		if f.Timestamp <= 0 || now < f.Timestamp {
			continue
		}
		if w := now - f.Timestamp; w != wait {
			a.waitHist.ObserveN(wait, run)
			wait, run = w, 0
		}
		run++
	}
	a.waitHist.ObserveN(wait, run)
}

// SendControl lets VRI-side code emit a control event toward another VRI;
// it reports whether the outgoing control queue had room.
func (a *VRIAdapter) SendControl(ev *ControlEvent) bool {
	ev.SrcVR, ev.SrcVRI = a.VRID, a.ID
	return a.Control.Out.Enqueue(ev)
}

// ControlHandleCost is the simulated CPU cost of retrieving one control
// event at the VRI (part of the 5-7 µs no-load relay latency of Fig. 4.7,
// the rest being LVRM's relay work and queue hops).
const ControlHandleCost = 2 * time.Microsecond
