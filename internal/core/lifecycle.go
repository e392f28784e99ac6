package core

import (
	"fmt"
	"slices"

	"lvrm/internal/flow"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
)

// This file owns the VRI lifecycle: the state machine every instance moves
// through and the drain-then-handoff teardown that replaces the seed's
// drop-on-destroy. The paper destroys a VRI by kill()ing its process, losing
// whatever sat in its shared-memory rings; here teardown is a first-class
// state transition in which every queued frame is either handed to a
// surviving VRI, relayed out, or released back to the pool under a named
// drop counter — never silently leaked.
//
// States and legal transitions:
//
//	Starting ──▶ Running ──▶ Draining ──▶ Stopped
//	    └──────────────────────▲ (spawn failure)
//
//	Starting  the adapter exists but is not yet published to dispatch.
//	Running   the instance admits and processes frames.
//	Draining  the instance is off the dispatch list and admits nothing;
//	          its queue residue is being handed off.
//	Stopped   the drain finished; the core is released and the adapter is
//	          inert forever (IDs are never reused).
//
// Transitions are compare-and-swap guarded, so an illegal transition (e.g.
// draining a VRI twice) is a no-op that the caller can detect, not a
// corrupted state.

// VRIState describes a VRI's position in its lifecycle.
type VRIState int32

const (
	// VRIStarting means the adapter is being built and is not yet visible
	// to dispatch.
	VRIStarting VRIState = iota
	// VRIRunning means the VRI admits and processes frames.
	VRIRunning
	// VRIDraining means the instance is off the dispatch list and the
	// monitor is handing its queue residue to the survivors.
	VRIDraining
	// VRIStopped means the drain completed and the core was deallocated.
	VRIStopped
)

// String returns the state name as used in metrics labels and status pages.
func (s VRIState) String() string {
	switch s {
	case VRIStarting:
		return "starting"
	case VRIRunning:
		return "running"
	case VRIDraining:
		return "draining"
	case VRIStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// transition attempts the from→to state change, reporting whether it applied.
// The CAS makes every lifecycle edge race-free: concurrent teardown attempts
// collapse to one winner.
func (a *VRIAdapter) transition(from, to VRIState) bool {
	return a.state.CompareAndSwap(int32(from), int32(to))
}

// markRunning publishes a freshly built adapter to the Running state.
func (a *VRIAdapter) markRunning() bool { return a.transition(VRIStarting, VRIRunning) }

// beginDrain moves a running instance into Draining, claiming teardown.
func (a *VRIAdapter) beginDrain() bool { return a.transition(VRIRunning, VRIDraining) }

// markStopped completes the lifecycle after the drain hand-off.
func (a *VRIAdapter) markStopped() bool { return a.transition(VRIDraining, VRIStopped) }

// destroyVRI detaches a from the VR (Figure 3.2's "destroy VRI adapter"):
// move it Running→Draining, drop it from the copy-on-write list, and mark
// every flow pin stale. The monitor is the only producer onto a's inbound
// queues, so nothing lands there once a is off the list. The adapter is left
// in Draining with its residue intact — retire, the one caller, owns the
// hand-off; flows pinned to the dead instance re-balance lazily through the
// table on their next frame unless the engine sweeps them eagerly first.
func (v *VR) destroyVRI(a *VRIAdapter) error {
	cur := v.vriList()
	i := slices.Index(cur, a)
	if i < 0 || !a.beginDrain() {
		return fmt.Errorf("core: VRI %d/%d on core %d is %v, not a running instance of VR %s",
			v.ID, a.ID, a.Core, a.State(), v.cfg.Name)
	}
	next := make([]*VRIAdapter, 0, len(cur)-1)
	next = append(next, cur[:i]...)
	next = append(next, cur[i+1:]...)
	v.vris.Store(&next)
	if v.flows != nil {
		v.flows.BumpEpoch()
	}
	return nil
}

// DrainStats is where a VR's migrated-away queue residue went besides a
// destination's data-in side (that is MigrationTotals.FramesMoved),
// aggregated across every migration the engine has run for it — migrate.go
// folds each MigrationReport in.
type DrainStats struct {
	// Relayed data-out frames were forwarded to the socket adapter (they
	// also count in Stats.Sent/SendErrors like any relayed frame).
	Relayed int64 `json:"relayed"`
	// Dropped frames were released back to the pool because no destination
	// existed or every destination's queue was full.
	Dropped int64 `json:"dropped"`
	// CtlMoved control events were delivered to their destinations.
	CtlMoved int64 `json:"ctl_moved"`
	// CtlDropped control events were addressed to the dead instance or to
	// destinations that no longer exist.
	CtlDropped int64 `json:"ctl_dropped"`
}

// DrainStats returns the VR's cumulative hand-off accounting across every
// migration the engine has run for it.
func (v *VR) DrainStats() DrainStats {
	return DrainStats{
		Relayed:    v.drainRelayed.Load(),
		Dropped:    v.drainDropped.Load(),
		CtlMoved:   v.drainCtlMoved.Load(),
		CtlDropped: v.drainCtlDropped.Load(),
	}
}

// RetiredStats are the per-VRI counters of destroyed instances, folded into
// the VR at drain time so frame conservation stays computable from live
// state after the adapters are gone.
type RetiredStats struct {
	VRIs        int64 `json:"vris"`
	Processed   int64 `json:"processed"`
	EngineDrops int64 `json:"engine_drops"`
	OutDrops    int64 `json:"out_drops"`
	CtlHandled  int64 `json:"ctl_handled"`
}

// Retired returns the cumulative counters of the VR's destroyed VRIs.
func (v *VR) Retired() RetiredStats {
	return RetiredStats{
		VRIs:        v.retiredVRIs.Load(),
		Processed:   v.retiredProcessed.Load(),
		EngineDrops: v.retiredEngDrops.Load(),
		OutDrops:    v.retiredOutDrops.Load(),
		CtlHandled:  v.retiredCtl.Load(),
	}
}

// migrateFrame hands one drained frame to a survivor's ring, preferring the
// one its flow is pinned to — so the flow's later frames queue behind it —
// then the least loaded instance, and falling back to any queue with room. It
// returns the survivor that took ownership, nil when none could.
func (v *VR) migrateFrame(survivors []*VRIAdapter, f *packet.Frame) *VRIAdapter {
	if len(survivors) == 0 {
		return nil
	}
	var s *VRIAdapter
	if v.flows != nil {
		if pin, ok := v.flows.PinOf(flow.KeyOf(f)); ok {
			s, _ = snapshotByID(survivors, pin)
		}
	}
	if s == nil {
		s = leastLoaded(survivors)
	}
	if s.hand(f) {
		return s
	}
	for _, s := range survivors {
		if s.hand(f) {
			return s
		}
	}
	return nil
}

// retire is the one transition that takes a VRI out of its VR (Figure 3.2's
// "destroy VRI adapter" arm); a policy shrink, a replica fold and a live move
// differ only in m, which says where src's partition goes:
//
//  1. Pause m.dst's consumer, if the migration has a single destination
//     (fold, move): the residue is staged onto it, and staging needs the
//     monitor to be its sole consumer. A shrink (MigrateDrain) hands the
//     residue to the survivors' rings and pauses nobody.
//  2. Detach src (destroyVRI: Draining, off the dispatch list) and join its
//     consumer through OnDestroy — the hook must stop AND wait for the
//     instance's goroutine, so the monitor becomes the queues' only
//     remaining consumer (the rings allow exactly one).
//  3. One engine invocation (migratePartition): flip src's pins, transplant
//     its data-in residue in order, relay its data-out residue, deliver or
//     drop its control residue, each under a named counter.
//  4. Fold src's counters into the VR's retired totals and close its state
//     machine at Stopped (finishDrain), release its core unless that is
//     LVRM's own, count and trace the destroy, resume m.dst.
//
// Must run monitor-serialized, like every migration.
func (l *LVRM) retire(v *VR, src *VRIAdapter, m migration) (MigrationReport, error) {
	m.src, m.pauseStart = src, l.cfg.Clock()
	if m.dst != nil {
		l.pauseVRI(v, m.dst)
		defer l.resumeVRI(v, m.dst)
	}
	if err := v.destroyVRI(src); err != nil {
		return MigrationReport{}, err
	}
	if l.OnDestroy != nil {
		l.OnDestroy(v, src)
	}
	rep := l.migratePartition(v, m)
	l.finishDrain(v, src, &rep, m.pauseStart)
	if src.Core != l.allocator.LVRMCore() {
		if err := l.allocator.Release(src.Core); err != nil {
			return rep, err
		}
	}
	l.ins.vriDestroys.Inc()
	l.ins.tracer.Record(obs.Event{
		At: l.cfg.Clock(), Kind: obs.KindDestroy, VR: v.ID, VRI: src.ID, Core: src.Core,
		Note: v.cfg.Name,
	})
	return rep, nil
}

// settleResidue settles a detached instance's non-data-in residue: finished
// outbound frames relay to the adapter (sendBatch counts sent/sendErrs like
// the live relay path), outbound control events are delivered or dropped
// under a counter, and inbound control events, addressed to a dead instance,
// drop, counted.
func (l *LVRM) settleResidue(a *VRIAdapter, rep *MigrationReport) {
	for {
		n := l.RelayFrom(a, l.cfg.RelayBatch)
		rep.Relayed += int64(n)
		if n < l.cfg.RelayBatch {
			break
		}
	}
	for {
		ev, ok := a.Control.Out.Dequeue()
		if !ok {
			break
		}
		if l.deliverControl(ev) {
			rep.CtlMoved++
		} else {
			l.ctlDropped.Add(1)
			rep.CtlDropped++
		}
	}
	for {
		if _, ok := a.Control.In.Dequeue(); !ok {
			break
		}
		l.ctlDropped.Add(1)
		rep.CtlDropped++
	}
}

// finishDrain folds the dead instance's counters into the VR's retired
// totals (so conservation sums stay computable once the adapter is
// unreachable) and closes the state machine at Stopped. The migration's own
// accounting was already folded in by the engine (addMigration); this is the
// retirement half.
func (l *LVRM) finishDrain(v *VR, a *VRIAdapter, rep *MigrationReport, start int64) {
	v.retiredVRIs.Add(1)
	v.retiredProcessed.Add(a.processed.Load())
	v.retiredEngDrops.Add(a.engDrops.Load())
	v.retiredOutDrops.Add(a.outDrops.Load())
	v.retiredCtl.Add(a.ctlHandled.Load())

	a.markStopped()

	end := l.cfg.Clock()
	l.ins.drainDur.Observe(end - start)
	l.ins.tracer.Record(obs.Event{
		At: end, Kind: obs.KindDrain, VR: v.ID, VRI: a.ID, Core: a.Core,
		Value: float64(end - start),
		Note: fmt.Sprintf("migrated=%d relayed=%d dropped=%d ctl_moved=%d ctl_dropped=%d pins=%d",
			rep.Moved, rep.Relayed, rep.Dropped, rep.CtlMoved, rep.CtlDropped, rep.Pins),
	})
}
