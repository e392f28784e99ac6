package core

import (
	"fmt"
	"sync/atomic"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/estimate"
	"lvrm/internal/flow"
	"lvrm/internal/ipc"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/vr"
)

// VRConfig describes one virtual router to host.
type VRConfig struct {
	// Name labels the VR in statistics and logs.
	Name string
	// SrcPrefix/SrcBits classify traffic: LVRM inspects each captured
	// frame's source IP address and dispatches it to the VR whose subnet
	// covers it (Chapter 2 workflow, step 2). Classify overrides this
	// when set.
	SrcPrefix packet.IP
	SrcBits   int
	// Classify, when non-nil, replaces the subnet rule.
	Classify func(*packet.Frame) bool
	// Engine builds a fresh packet engine per spawned VRI.
	Engine vr.Factory
	// Policy is the VR's core-allocation policy (nil = fixed at 1 core).
	Policy alloc.Policy
	// Balancer dispatches frames among the VR's VRIs. Under flow dispatch
	// (Config.FlowShards > 0) it picks the VRI of each new, re-balanced or
	// drained flow only, when the VR has more than one, and nil keeps the
	// least-loaded pick; otherwise it picks per frame, and nil means JSQ.
	Balancer balance.Balancer
	// InitialVRIs is the number of VRIs to spawn at start (minimum 1).
	InitialVRIs int
	// MaxVRIs caps the VR's VRIs (0 = limited only by free cores).
	MaxVRIs int
	// MaxReplicas overrides Config.MaxReplicas for this VR (0 inherits).
	// An effective value above 1 lets the allocator run this VR as N
	// replica VRIs over a flow partition — see replicate.go. It requires
	// flow dispatch (Config.FlowShards > 0) and replaces the VR's Policy
	// with the split/fold controller.
	MaxReplicas int
}

// VR is one hosted virtual router: its VRI monitor state (the balancer and
// the live VRI set) plus the per-VR estimators the VR monitor reads.
type VR struct {
	// ID is the VR's index within LVRM.
	ID  int
	cfg VRConfig

	// vris is copy-on-write: the monitor goroutine swaps in a fresh slice on
	// spawn and destroy, and every reader — the worker goroutines, Status
	// scrapers — sees a consistent snapshot with one atomic load and no
	// allocation. nextID is the monitor's, like everything it mutates here.
	vris   atomic.Pointer[[]*VRIAdapter]
	nextID int

	// srcNet/srcMask are the subnet rule of cfg.SrcPrefix/SrcBits, computed
	// once at AddVR so classification is one AND and one compare per VR.
	srcNet, srcMask uint32

	// targets is balanceTargets' scratch slice, reused so the hot path does
	// not allocate: the balance.Target list of a run or of a flow pick. Only
	// the monitor goroutine touches it, the same ownership rule as LVRM's
	// recvBuf. Balancers must not retain targets past Pick (none of the
	// shipped ones do).
	targets []balance.Target
	// keys and ids are assignHits' scratch, monitor-owned like targets: the
	// flow keys of a chunk of the run and the VRIs of its clean hits.
	keys [flow.MaxBurst]uint64
	ids  [flow.MaxBurst]int32

	// arrival estimates the VR's traffic load for core allocation.
	arrival *estimate.ArrivalRate

	// flows, when non-nil, puts the flow-affinity table in front of the
	// balancer (Config.FlowShards > 0): dispatch hashes the frame to a flow
	// key, pins the flow to the VRI picked for its first frame, and enqueues
	// there. Nil means the balancer picks per frame; the loop is the same.
	flows *flow.Table
	// admitDepth is Config.FlowAdmitDepth: > 0 sheds new flows when every
	// VRI's input queue is at least this deep (see assign).
	admitDepth int

	// maxReplicas is the effective replica ceiling (VRConfig.MaxReplicas,
	// falling back to Config.MaxReplicas); above 1 the VR is replicated:
	// its VRI set is a replica set over a flow partition and the split/fold
	// controller replaces the allocation policy (see replicate.go).
	maxReplicas int
	// splitCtl is the hysteresis-damped split/fold controller; non-nil
	// exactly when maxReplicas > 1.
	splitCtl *balance.SplitFold
	splits   atomic.Int64 // completed replica splits
	folds    atomic.Int64 // completed replica folds

	// Migration accounting (migrate.go): per-kind engine invocations plus
	// total frames transplanted and pins flipped, across drains, splits,
	// folds and live moves.
	migrations [migrationKinds]atomic.Int64
	migFrames  atomic.Int64
	migPins    atomic.Int64

	dispatched atomic.Int64
	inDrops    atomic.Int64 // frames lost to full VRI input queues
	admitShed  atomic.Int64 // new-flow frames shed by load-aware admission

	// Drain accounting: where migrated VRIs' queue residue went besides a
	// destination's data-in side (that is migFrames), summed over every
	// migration (DrainStats; drainDropped is also a Ledger bucket).
	drainRelayed    atomic.Int64
	drainDropped    atomic.Int64
	drainCtlMoved   atomic.Int64
	drainCtlDropped atomic.Int64

	// Retired totals: destroyed VRIs' counters folded in at drain time, so
	// conservation sums over "all VRIs ever" stay computable from live
	// state after the adapters are dropped from the list.
	retiredVRIs      atomic.Int64
	retiredProcessed atomic.Int64
	retiredEngDrops  atomic.Int64
	retiredOutDrops  atomic.Int64
	retiredCtl       atomic.Int64

	// Observability handles, wired by LVRM at AddVR; all nil-safe.
	depthHWM *obs.Gauge     // high-water mark of any VRI's input queue
	waitHist *obs.Histogram // dispatch→dequeue wait, copied to each VRI
	tracer   *obs.Tracer    // sampled balancer decisions
}

// Name returns the VR's configured name.
func (v *VR) Name() string { return v.cfg.Name }

// vriList returns the current VRI snapshot with one atomic load. Callers
// must treat the returned slice as immutable.
func (v *VR) vriList() []*VRIAdapter {
	if p := v.vris.Load(); p != nil {
		return *p
	}
	return nil
}

// VRIs returns a read-only snapshot of the VR's live VRI adapters.
func (v *VR) VRIs() []*VRIAdapter { return v.vriList() }

// Cores returns the number of cores (VRIs) currently allocated.
func (v *VR) Cores() int { return len(v.vriList()) }

// replicated reports whether this VR runs as a replica set (effective
// MaxReplicas above 1); its VRIs are then replicas over a flow partition
// and the split/fold controller owns its core allocation.
func (v *VR) replicated() bool { return v.maxReplicas > 1 }

// Replicas returns the VR's live replica count (same as Cores; named for
// the replication API) and the completed split and fold totals.
func (v *VR) Replicas() (n int, splits, folds int64) {
	return len(v.vriList()), v.splits.Load(), v.folds.Load()
}

// ArrivalRate returns the VR's estimated traffic load in frames/second.
func (v *VR) ArrivalRate() float64 { return v.arrival.Estimate() }

// Dispatched returns the number of frames dispatched into the VR's VRIs.
func (v *VR) Dispatched() int64 { return v.dispatched.Load() }

// InDrops returns frames lost to full VRI input queues.
func (v *VR) InDrops() int64 { return v.inDrops.Load() }

// AdmissionShed returns new-flow frames shed by load-aware admission
// (Config.FlowAdmitDepth) instead of being queued behind a backlog.
func (v *VR) AdmissionShed() int64 { return v.admitShed.Load() }

// Balancer returns the VR's load balancer (nil for a flow VR configured
// without one).
func (v *VR) Balancer() balance.Balancer { return v.cfg.Balancer }

// ServiceRatePerVRI averages the VRIs' service-rate estimates, feeding the
// dynamic-threshold allocation policy. The divisor is the full live VRI
// count, not just the VRIs with a valid estimate: an idle replica has
// contributed zero measured capacity, and counting only the busy ones would
// let the inter-VR allocator double-count a split VR (capacity = cores ×
// per-VRI rate, with both factors inflated).
func (v *VR) ServiceRatePerVRI() float64 {
	var sum float64
	valid := 0
	vris := v.vriList()
	for _, a := range vris {
		if a.SvcEst.Valid() {
			sum += a.SvcEst.Estimate()
			valid++
		}
	}
	if valid == 0 {
		return 0
	}
	return sum / float64(len(vris))
}

// match reports whether the frame, whose headers are parsed into m, belongs
// to this VR.
func (v *VR) match(m *packet.Meta, f *packet.Frame) bool {
	if v.cfg.Classify != nil {
		return v.cfg.Classify(f)
	}
	// A 0-bit prefix has a zero mask and matches every valid IPv4 frame.
	return m.IPv4 && uint32(m.Src)&v.srcMask == v.srcNet
}

// dispatch hands a run of frames — consecutive frames of one burst that all
// classified to this VR — to the VR's VRIs and returns how many were
// accepted; the rest are released under inDrops or admitShed. arrivals is the
// number of frames to report to the VR's arrival estimator (see
// burstArrivals).
//
// It is the one loop that places frames on VRI rings. Each VRI's queue depth
// and free room are read once at the start of the run (balanceTargets) and
// counted locally from there (runDepth, runRoom), so a pick sees the frames
// placed before it in the same run without re-reading the ring cursor the
// VRI's core keeps writing. Each frame's VRI comes from one of three places:
// the balancer, per frame, on a VR without a flow table; a clean hit of the
// table's vector pass (AssignHits, flow.MaxBurst keys at a time); or assign,
// for a key that is not a clean hit, at its place in frame order after
// everything before it has been published, so keep and pick read exactly the
// queues and owed counts they would have read had the frames come one at a
// time. Every frame is then staged the same way, and consecutive frames for
// one VRI are published with a single EnqueueBatch: frames[lo:g] is the run
// staged for cur as the loop reaches frame g — always a contiguous piece of
// the burst, because a change of VRI, a full ring, an assign and a shed are
// all preceded by a flush. Spawn, destroy and the migration engine's Transfer
// run on the dispatching goroutine too, so a pin that is not stale always
// names a VRI of vris.
func (v *VR) dispatch(frames []*packet.Frame, scratch []parsed, now int64, arrivals int) (accepted int) {
	// The paper's traffic load is the *arrival* rate of incoming frames for
	// the VR, so estimate it before any queue-full drop — otherwise a
	// saturated VR would under-report its load and never earn more cores.
	// The estimator is internally locked.
	v.arrival.ObserveN(now, arrivals)
	vris := v.vriList()
	if len(vris) == 0 {
		return v.refuse(frames)
	}
	targets := v.balanceTargets(vris)
	flows := v.flows
	var cur *VRIAdapter
	lo := 0
	outcome := flow.Hit // the table's outcome for the last staged frame
	for g, f := range frames {
		var a *VRIAdapter
		oc := flow.Hit
		if flows == nil {
			a = vris[v.cfg.Balancer.Pick(targets, f)]
		} else {
			i := g % flow.MaxBurst
			if i == 0 {
				v.assignHits(frames[g:], scratch[g:])
			}
			if id := v.ids[i]; id >= 0 {
				a, _ = snapshotByID(vris, int(id))
			} else {
				accepted += v.flush(cur, frames[lo:g], now, outcome)
				lo = g
				if a, oc = v.assign(vris, v.keys[i], f, now); a == nil {
					// Admission refused the new flow: shed the frame before it
					// joins a backlog no VRI can clear. The arrival estimator
					// already saw it, so the VR's offered load (and thus its
					// claim to more cores) is intact.
					v.admitShed.Add(1)
					f.Release()
					lo = g + 1
					continue
				}
			}
		}
		if a != cur {
			accepted += v.flush(cur, frames[lo:g], now, outcome)
			cur, lo = a, g
		}
		outcome = oc
		// Figure 3.4 "queue length": observe occupancy when forwarding.
		a.QueueEst.Observe(a.runDepth)
		a.runDepth++
		if a.runRoom > 0 {
			a.runRoom--
		} else {
			// The room read when the run began is used up: try now, so that
			// the next pick sees the real outcome rather than a guess.
			accepted += v.flush(a, frames[lo:g+1], now, outcome)
			lo = g + 1
		}
	}
	return accepted + v.flush(cur, frames[lo:], now, outcome)
}

// assignHits hashes the flow keys of the next flow.MaxBurst frames (or the
// fewer that are left) into v.keys and resolves their leading clean hits in
// one pass of the table (AssignHits); v.ids holds each hit's VRI and -1 for a
// key dispatch must resolve with assign. A chunk of one skips the vector pass.
func (v *VR) assignHits(frames []*packet.Frame, scratch []parsed) {
	n := min(len(frames), flow.MaxBurst)
	for i, f := range frames[:n] {
		v.keys[i] = flow.KeyOfMeta(scratch[i].meta, f)
	}
	v.ids[0] = -1
	if n > 1 {
		v.flows.AssignHits(v.keys[:n], v.ids[:n])
	}
}

// refuse drops a whole run because the VR has no VRI to take it.
func (v *VR) refuse(frames []*packet.Frame) int {
	v.inDrops.Add(int64(len(frames)))
	releaseAll(frames)
	return 0
}

// balanceTargets rebuilds v.targets, the list the VR's balancer picks from,
// one entry per VRI of vris in order, and reads each VRI's input queue once
// into the run's local view: runDepth (PendingData, which JSQ's runLoad
// folds into QueueEst) and runRoom.
func (v *VR) balanceTargets(vris []*VRIAdapter) []balance.Target {
	v.targets = v.targets[:0]
	for _, a := range vris {
		ring := a.Data.In.Len()
		a.runDepth = int(a.preLen.Load()) + ring
		a.runRoom = a.Data.In.Cap() - ring
		v.targets = append(v.targets, balance.Target{ID: a.ID, Load: a.loadFn})
	}
	return v.targets
}

// assign resolves key, the flow of f, through the affinity table and returns
// the VRI to stage f for and the table's outcome; nil means load-aware
// admission refused a new flow.
func (v *VR) assign(vris []*VRIAdapter, key uint64, f *packet.Frame, now int64) (*VRIAdapter, flow.Outcome) {
	var chosen *VRIAdapter
	established := false
	// keep decides what to do with a pin from before the last VRI spawn or
	// destroy. Moving a flow whose frames are still on their way through the
	// old VRI would let the new VRI overtake them, so affinity is kept while
	// the pinned VRI is alive and owes frames (see VRIAdapter.owes); a
	// settled (or dead) flow can move freely — its frames are all relayed
	// (or already lost to teardown).
	keep := func(id int) bool {
		established = true
		a, ok := snapshotByID(vris, id)
		if !ok || a.owes() {
			chosen = a // nil when !ok; Assign then consults pick
			return ok
		}
		return false
	}
	// pick places an unpinned flow (pickFlow). Load-aware admission lives
	// here: when even the least-loaded VRI is backed up past admitDepth, a
	// brand-new flow is refused — shed by the caller as a counted drop —
	// while a flow that already held a pin (keep ran, so Assign is
	// re-balancing it) is always placed, preserving the established traffic
	// the backlog belongs to.
	pick := func() int {
		if v.admitDepth > 0 && !established && leastLoaded(vris).PendingData() >= v.admitDepth {
			return -1
		}
		chosen = v.pickFlow(vris, f)
		return chosen.ID
	}
	id, oc := v.flows.Assign(key, now, keep, pick)
	if id < 0 {
		return nil, oc
	}
	if chosen == nil { // a hit: neither keep nor pick ran
		chosen, _ = snapshotByID(vris, id)
	}
	return chosen, oc
}

// pickFlow picks the VRI of vris for a new or re-balanced flow, f being its
// frame (nil for a pin a drain moves): the VR's balancer when it has one and
// there is a choice to make (the paper's flow-based JSQ, RR or random), else
// the least instantaneous queue depth. A lone VRI is no choice: it is taken
// without asking the balancer, so a single-VRI VR's misses stay as cheap as
// with no balancer. The balancer picks from v.targets, which the caller has
// built from vris (balanceTargets).
func (v *VR) pickFlow(vris []*VRIAdapter, f *packet.Frame) *VRIAdapter {
	if v.cfg.Balancer == nil || len(vris) == 1 {
		return leastLoaded(vris)
	}
	return vris[v.cfg.Balancer.Pick(v.targets, f)]
}

// flush publishes run, the frames staged for a (handRun), and returns how
// many the ring accepted; on a flow VR, oc is the table's outcome for the
// run's last frame, which names a sampled trace event.
func (v *VR) flush(a *VRIAdapter, run []*packet.Frame, now int64, oc flow.Outcome) int {
	n := len(run)
	if n == 0 {
		return 0
	}
	ok := v.handRun(a, run)
	a.runDepth -= n - ok
	if v.flows == nil {
		v.placed(a, ok, a.runDepth, now, obs.KindBalance,
			"balancer pick; value = chosen VRI queue depth after enqueue")
	} else {
		v.placed(a, ok, a.runDepth, now, obs.KindFlow, flowNotes[oc])
	}
	return ok
}

// handRun hands a run of frames to a's input ring as one unit — one handed
// count, one EnqueueBatch — and returns how many the ring took; the rejected
// tail is settled, counted in inDrops and released.
func (v *VR) handRun(a *VRIAdapter, run []*packet.Frame) int {
	n := len(run)
	a.handed.Add(int64(n))
	ok := ipc.EnqueueBatch(a.Data.In, run)
	if rejected := n - ok; rejected > 0 {
		a.settled.Add(int64(rejected))
		v.inDrops.Add(int64(rejected))
		releaseAll(run[ok:])
	}
	return ok
}

// placed accounts n frames that a's input queue just accepted, leaving it
// depth frames deep: the dispatched counter, the depth high-water mark, and
// one sampled trace event per 256 dispatched frames, so the trace shows who
// is being picked without flooding the ring on the hot path. Tracer.Record
// is nil-safe, so no explicit nil check.
func (v *VR) placed(a *VRIAdapter, n, depth int, now int64, kind obs.Kind, note string) {
	if n == 0 {
		return
	}
	total := v.dispatched.Add(int64(n))
	v.depthHWM.SetMax(int64(depth))
	if total>>8 != (total-int64(n))>>8 {
		v.tracer.Record(obs.Event{
			At:    now,
			Kind:  kind,
			VR:    v.ID,
			VRI:   a.ID,
			Core:  a.Core,
			Value: float64(depth),
			Note:  note,
		})
	}
}

// flowNotes are the sampled flow event's notes, one per Assign outcome, built
// once so that sampling does not allocate.
var flowNotes = func() (notes [flow.Overflow + 1]string) {
	for o := range notes {
		notes[o] = flow.Outcome(o).String() + "; value = pinned VRI queue depth after enqueue"
	}
	return notes
}()

// snapshotByID finds a VRI by ID in an immutable snapshot slice.
func snapshotByID(vris []*VRIAdapter, id int) (*VRIAdapter, bool) {
	for _, a := range vris {
		if a.ID == id {
			return a, true
		}
	}
	return nil, false
}

// leastLoaded picks the VRI with the shortest instantaneous input queue,
// breaking ties toward the higher measured service rate: a flow is placed
// once, on the queues as they are. pickFlow uses it when the VR has no
// balancer or one VRI, and load-aware admission always does.
func leastLoaded(vris []*VRIAdapter) *VRIAdapter {
	best := vris[0]
	bestDepth := best.PendingData()
	for _, a := range vris[1:] {
		d := a.PendingData()
		if d < bestDepth {
			best, bestDepth = a, d
			continue
		}
		if d == bestDepth && a.SvcEst.Valid() && best.SvcEst.Valid() &&
			a.SvcEst.Estimate() > best.SvcEst.Estimate() {
			best = a
		}
	}
	return best
}

// FlowStats returns the VR's flow-table counters; ok is false when flow
// dispatch is disabled.
func (v *VR) FlowStats() (flow.Stats, bool) {
	if v.flows == nil {
		return flow.Stats{}, false
	}
	return v.flows.Stats(), true
}

// FlowTable exposes the VR's affinity table (nil when flow dispatch is off).
func (v *VR) FlowTable() *flow.Table { return v.flows }

// spawnVRI creates a new VRI adapter bound to core (Figure 3.2's "create
// VRI adapter"): create the queue pairs, bind the core, build the engine,
// add to the VRI list.
func (v *VR) spawnVRI(core int, now int64, queueKind ipc.Kind, dataCap, ctlCap int) (*VRIAdapter, error) {
	engine, err := v.cfg.Engine()
	if err != nil {
		return nil, fmt.Errorf("core: VR %s: building engine: %w", v.cfg.Name, err)
	}
	a := &VRIAdapter{
		ID:        v.nextID,
		VRID:      v.ID,
		Core:      core,
		Data:      ipc.NewPair[*packet.Frame](queueKind, dataCap),
		Control:   ipc.NewPair[*ControlEvent](queueKind, ctlCap),
		QueueEst:  estimate.NewQueueLength(0),
		SvcEst:    estimate.NewServiceRate(0),
		Engine:    engine,
		SpawnedAt: now,
	}
	a.waitHist = v.waitHist
	a.loadFn = a.runLoad // bound once; dispatch reuses it allocation-free
	// Cache the optional-capability assertions: StepBatch pins the engine's
	// FIB generation once per quantum, and hands a batch engine the quantum,
	// without re-asserting on the hot path.
	if p, ok := engine.(vr.RoutePinner); ok {
		a.pinner = p
	}
	a.batcher, _ = engine.(vr.BatchEngine)
	// Starting→Running before the COW insert: the instance is never visible
	// to dispatch in any state but Running.
	a.markRunning()
	v.nextID++
	cur := v.vriList()
	next := make([]*VRIAdapter, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, a)
	v.vris.Store(&next)
	if v.flows != nil {
		// Mark every pin stale: drained flows may voluntarily re-balance
		// onto the new VRI instead of staying piled on the old ones.
		v.flows.BumpEpoch()
	}
	return a, nil
}
