package core

import (
	"fmt"

	"lvrm/internal/ipc"
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
//	Draining  admissions are closed and the instance is off the dispatch
//	          list; its queue residue is being handed off.
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
	// VRIDraining means admissions are closed and the monitor is handing
	// the instance's queue residue to the survivors.
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

// destroyVRI detaches the VRI bound to core (Figure 3.2's "destroy VRI
// adapter"): move it Running→Draining, close its inbound queues so racing
// dispatchers fail fast (counted, frame released by the dispatcher), drop it
// from the copy-on-write list, and mark every flow pin stale. The returned
// adapter is left in Draining with its residue intact — the LVRM layer owns
// the hand-off (the migration engine, via drainVRI / foldVR / moveVRI);
// flows pinned to the dead instance re-balance lazily through the table on
// their next frame unless the engine sweeps them eagerly first.
func (v *VR) destroyVRI(core int) (*VRIAdapter, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.vriList()
	for i, a := range cur {
		if a.Core == core {
			if !a.beginDrain() {
				return nil, fmt.Errorf("core: VRI %d/%d on core %d is %v, not running",
					v.ID, a.ID, core, a.State())
			}
			// Close admissions before the instance leaves the list: a
			// dispatcher holding an older snapshot must fail fast instead of
			// parking frames on a queue nobody will ever service.
			ipc.Close(a.Data.In)
			ipc.Close(a.Control.In)
			next := make([]*VRIAdapter, 0, len(cur)-1)
			next = append(next, cur[:i]...)
			next = append(next, cur[i+1:]...)
			v.vris.Store(&next)
			if v.flows != nil {
				v.flows.BumpEpoch()
			}
			return a, nil
		}
	}
	return nil, fmt.Errorf("core: VR %s has no VRI on core %d", v.cfg.Name, core)
}

// DrainStats is the VR's cumulative hand-off accounting, aggregated across
// every migration the engine has run for it (teardown drains, splits, folds
// and live moves — migrate.go folds each MigrationReport in). Every frame
// that sat in a source's queues appears in exactly one bucket, which is what
// lets the churn tests prove conservation.
type DrainStats struct {
	// Migrated data-in frames were re-enqueued or staged on destination
	// VRIs.
	Migrated int64 `json:"migrated"`
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
	// Pins is how many flow-table pins changed owner or were unpinned.
	Pins int64 `json:"pins"`
}

// DrainStats returns the VR's cumulative hand-off accounting across every
// migration the engine has run for it.
func (v *VR) DrainStats() DrainStats {
	return DrainStats{
		Migrated:   v.migFrames.Load(),
		Relayed:    v.drainRelayed.Load(),
		Dropped:    v.drainDropped.Load(),
		CtlMoved:   v.drainCtlMoved.Load(),
		CtlDropped: v.drainCtlDropped.Load(),
		Pins:       v.migPins.Load(),
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

// migrateFrame hands one drained frame to a survivor, preferring the least
// loaded instance and falling back to any queue with room. It returns the
// survivor that took ownership, if any.
func migrateFrame(survivors []*VRIAdapter, f *packet.Frame) (*VRIAdapter, bool) {
	if len(survivors) == 0 {
		return nil, false
	}
	if s := leastLoaded(survivors); s.hand(f) {
		return s, true
	}
	for _, s := range survivors {
		if s.hand(f) {
			return s, true
		}
	}
	return nil, false
}

// drainVRI performs the hand-off for a detached, Draining instance and moves
// it to Stopped, via one MigrateDrain invocation of the migration engine
// (migrate.go): the dead instance's flow pins re-point to the least-loaded
// survivors (or unpin when none remain), its data-in residue migrates to
// their rings in queued order, its data-out residue relays to the socket
// adapter, and its control residue is delivered or dropped under a named
// counter. The caller must guarantee the monitor is the instance's only
// remaining consumer — in the live runtime the worker goroutine is joined
// first (Runtime.stopVRI), in the testbed everything is single-threaded.
func (l *LVRM) drainVRI(v *VR, a *VRIAdapter) MigrationReport {
	start := l.cfg.Clock()
	rep := l.migratePartition(v, migration{
		kind: MigrateDrain, src: a, survivors: v.vriList(), pauseStart: start,
	})
	l.finishDrain(v, a, &rep, start)
	return rep
}

// settleResidue settles a detached instance's non-data-in residue — the
// shared tail of every detaching migration (teardown drain, replica fold,
// live move):
//
//  2. Finished outbound residue relays to the adapter (sendBatch counts
//     sent/sendErrs like the live relay path).
//  3. Outbound control residue is delivered; failures are counted drops.
//  4. Inbound control residue was addressed to a dead instance; it drops,
//     counted.
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
