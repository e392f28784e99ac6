package core

import (
	"fmt"
	"time"

	"lvrm/internal/flow"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
)

// This file is the migration engine: the ONE primitive every flow hand-off
// between VRIs routes through. Before it existed the codebase carried three
// divergent implementations of "move flows + queue residue between VRIs" —
// the teardown drain, the replica split/fold transplants (replicate.go), and
// the rebalance-on-death sweep — each with its own ordering proof and
// counters. They are now parameterizations of one monitor-serialized
// operation:
//
//	select partition → flip pins → transplant residue in order → fold
//	counters into a MigrationReport
//
// The invariants (DESIGN.md §10):
//
//   - Monitor serialization: every migration runs on the goroutine that
//     also dispatches (the monitor loop, or the single-threaded testbed),
//     so no frame is dispatched mid-transplant.
//   - Pin flip before transplant: the flow table's pin is the single source
//     of truth for partition ownership. Pins are re-pointed FIRST, so any
//     frame dispatched after the flip lands on the destination's ring —
//     strictly behind the residue about to be staged.
//   - Staged residue precedes the ring: transplanted frames go to the
//     destination's staging queue, which its consumer drains BEFORE the
//     ring (takePre first in StepBatch), preserving per-flow FIFO
//     order across the hand-off.
//   - Bounded pause: the only consumers stopped are the source's and the
//     destination's; the pause lasts one transplant, measured and exported
//     as lvrm_migration_pause_nanoseconds.
//
// The engine also unlocks the genuinely new capability: live migration
// (moveVRI / LVRM.MoveVRI / Runtime.MoveVRI) relocates a running VRI to
// another core without a drain-to-zero pause — spawn a shadow on the target
// core, transfer the partition and residue mid-stream, retire the source.

// MigrationKind labels which hand-off path invoked the engine.
type MigrationKind int

const (
	// MigrateDrain is VRI teardown: the full partition re-pins to the
	// surviving VRIs, each flow picked as a new one would be (or unpinned
	// when none remain), and the residue migrates to their rings, following
	// the pins.
	MigrateDrain MigrationKind = iota
	// MigrateSplit is a replica split: half the source's partition re-pins
	// to a freshly spawned replica, residue follows its flow's pin.
	MigrateSplit
	// MigrateFold is a replica fold: the whole partition of a retiring
	// replica merges into a survivor.
	MigrateFold
	// MigrateMove is a live move: the whole partition relocates to a shadow
	// VRI on a different core, and the source retires.
	MigrateMove

	migrationKinds = 4
)

// String returns the kind name used in metrics labels and traces.
func (k MigrationKind) String() string {
	switch k {
	case MigrateDrain:
		return "drain"
	case MigrateSplit:
		return "split"
	case MigrateFold:
		return "fold"
	case MigrateMove:
		return "move"
	default:
		return "unknown"
	}
}

// MigrationReport is the unified accounting of one migration: every frame
// and control event that sat in the source's queues appears in exactly one
// bucket, which is what lets the soak tests prove conservation across any
// interleaving of drains, splits, folds and moves.
type MigrationReport struct {
	// Kind is which hand-off path ran.
	Kind MigrationKind `json:"-"`
	// SrcVRI is the instance the partition left; DstVRI is where it went
	// (-1 for a teardown drain, whose destinations are "the survivors").
	SrcVRI int `json:"src_vri"`
	DstVRI int `json:"dst_vri"`
	// Pins is how many flow-table pins changed owner (or were unpinned).
	Pins int64 `json:"pins"`
	// Moved data-in frames were transplanted to the destination(s).
	Moved int64 `json:"moved"`
	// Returned data-in frames were staged back onto the source (split
	// only: the half of the residue whose flows did not move).
	Returned int64 `json:"returned"`
	// Relayed data-out frames were forwarded to the socket adapter.
	Relayed int64 `json:"relayed"`
	// Dropped frames were released back to the pool because no destination
	// existed or every destination's queue was full.
	Dropped int64 `json:"dropped"`
	// CtlMoved control events were delivered to their destinations;
	// CtlDropped were addressed to the dead instance or undeliverable.
	CtlMoved   int64 `json:"ctl_moved"`
	CtlDropped int64 `json:"ctl_dropped"`
	// Pause is how long the affected consumers were held, from the moment
	// the caller began pausing them to transplant completion.
	Pause time.Duration `json:"pause_ns"`
}

// MigrationTotals is a VR's cumulative migration accounting across every
// engine invocation, surfaced per VR in Status.
type MigrationTotals struct {
	Drains      int64 `json:"drains"`
	Splits      int64 `json:"splits"`
	Folds       int64 `json:"folds"`
	Moves       int64 `json:"moves"`
	FramesMoved int64 `json:"frames_moved"`
	PinsFlipped int64 `json:"pins_flipped"`
}

// Migrations returns the VR's cumulative migration totals.
func (v *VR) Migrations() MigrationTotals {
	return MigrationTotals{
		Drains:      v.migrations[MigrateDrain].Load(),
		Splits:      v.migrations[MigrateSplit].Load(),
		Folds:       v.migrations[MigrateFold].Load(),
		Moves:       v.migrations[MigrateMove].Load(),
		FramesMoved: v.migFrames.Load(),
		PinsFlipped: v.migPins.Load(),
	}
}

// migration describes one partition hand-off for migratePartition.
type migration struct {
	kind MigrationKind
	// src is the instance losing the partition. For drain/fold/move retire
	// fills it in, detached (Draining, off the dispatch list, its consumer
	// joined); for split it is live but paused.
	src *VRIAdapter
	// dst is the instance gaining the partition; nil for MigrateDrain,
	// whose destinations are the VR's remaining VRIs. Its consumer must be
	// paused (staging appends require the monitor to be the sole consumer).
	dst *VRIAdapter
	// shouldMove selects which src flows move (MigrateSplit only; every
	// other kind moves the whole partition).
	shouldMove func(key uint64) bool
	// pauseStart is when the caller began pausing consumers (clock ns; retire
	// fills it in); the report's Pause is measured from it.
	pauseStart int64
}

// migratePartition executes one partition hand-off. The caller must hold
// the serialization and pause preconditions described on migration; the
// engine then performs the three steps in the invariant order — flip pins,
// transplant residue, settle what cannot move — and folds the accounting
// into the VR's cumulative counters and the migration metrics.
func (l *LVRM) migratePartition(v *VR, m migration) MigrationReport {
	rep := MigrationReport{Kind: m.kind, SrcVRI: m.src.ID, DstVRI: -1}
	if m.dst != nil {
		rep.DstVRI = m.dst.ID
	}
	// MigrateDrain's destinations: a detached src is already off the list.
	survivors := v.vriList()

	// 1. Flip pins. The pin is the ownership transfer: dispatch consults it
	// on this same goroutine, so from here on every new frame of a moved flow
	// lands on the destination's ring — behind the residue staged in step 2.
	if v.flows != nil {
		if m.kind == MigrateDrain {
			v.balanceTargets(survivors)
		}
		rep.Pins = int64(v.flows.Transfer(m.src.ID, func(key uint64) int {
			switch {
			case m.kind == MigrateDrain: // picked like a new flow, or unpinned
				if len(survivors) == 0 {
					return -1
				}
				return v.pickFlow(survivors, nil).ID
			case m.kind == MigrateSplit && !m.shouldMove(key): // this flow stays
				return m.src.ID
			}
			return m.dst.ID // fold, move, and the moved half of a split
		}))
	}

	// 2. Transplant the data-in residue in queued order: staging first (it
	// predates the ring), then the ring. Drain to scratch before routing —
	// a split stages part of the residue back onto the source, which must
	// not happen while the source is still being drained.
	var residue []*packet.Frame
	for {
		f, ok := m.src.takePre()
		if !ok {
			f, ok = m.src.Data.In.Dequeue()
		}
		if !ok {
			break
		}
		residue = append(residue, f)
	}
	for _, f := range residue {
		if m.kind == MigrateSplit {
			if pin, ok := v.flows.PinOf(flow.KeyOf(f)); !ok || pin != m.dst.ID {
				m.src.stagePre(f)
				rep.Returned++
				continue
			}
		}
		to := m.dst
		if m.kind == MigrateDrain {
			// Nobody is paused: straight onto a survivor's ring (hand counts
			// it), or to nobody when there is no survivor with room.
			if to = v.migrateFrame(survivors, f); to == nil {
				rep.Dropped++
				f.Release()
				continue
			}
		} else {
			to.stagePre(f)
			to.handed.Add(1)
		}
		to.migIn.Add(1)
		rep.Moved++
	}
	// Whatever left the source is no longer its to deliver.
	m.src.settled.Add(rep.Moved + rep.Dropped)

	// 3. A detached source never runs again: settle its outbound and
	// control residue (a split's source stays live and keeps its own).
	if m.kind != MigrateSplit {
		l.settleResidue(m.src, &rep)
	}

	rep.Pause = time.Duration(l.cfg.Clock() - m.pauseStart)
	v.addMigration(rep)
	l.ins.migPause.Observe(int64(rep.Pause))
	return rep
}

// addMigration folds one migration's accounting into the VR's cumulative
// counters: the per-kind totals behind lvrm_migrations_total and Status, and
// the drain_* counters the conservation reports are written against.
func (v *VR) addMigration(rep MigrationReport) {
	v.migrations[rep.Kind].Add(1)
	v.migFrames.Add(rep.Moved)
	v.migPins.Add(rep.Pins)
	v.drainRelayed.Add(rep.Relayed)
	v.drainDropped.Add(rep.Dropped)
	v.drainCtlMoved.Add(rep.CtlMoved)
	v.drainCtlDropped.Add(rep.CtlDropped)
}

// moveVRI is live migration: relocate a running VRI to another core with no
// drain-to-zero pause. targetCore below zero selects the allocator's best
// free core. The protocol:
//
//  1. Spawn a shadow VRI on the target core through the normal spawn path
//     (core bind, OnSpawn). The VR serves traffic on n+1 instances for the
//     duration of the move; new flows may already pin to the shadow.
//  2. Retire the source with the shadow as the one MigrateMove destination:
//     every source pin flips to the shadow, the residue transplants onto
//     the shadow's staging queue in order, the source's outbound residue
//     settles, its core is released and the shadow resumes. The pause the
//     data path observed is one transplant, not a drain to zero.
//
// Must run monitor-serialized (the allocation pass, LVRM.MoveVRI from the
// testbed's goroutine, or the runtime's request queue).
func (l *LVRM) moveVRI(v *VR, src *VRIAdapter, targetCore int, iterCost time.Duration) (MigrationReport, AllocEvent, error) {
	now := l.cfg.Clock()
	if src.State() != VRIRunning {
		return MigrationReport{}, AllocEvent{}, fmt.Errorf("core: VRI %d/%d is %v, not running", v.ID, src.ID, src.State())
	}
	if targetCore == src.Core {
		return MigrationReport{}, AllocEvent{}, fmt.Errorf("core: VRI %d/%d already runs on core %d", v.ID, src.ID, targetCore)
	}
	var dst *VRIAdapter
	var err error
	if targetCore < 0 {
		dst, err = l.growVR(v, now)
	} else {
		dst, err = l.spawnOn(v, now, targetCore)
	}
	if err != nil {
		return MigrationReport{}, AllocEvent{}, err
	}
	rep, err := l.retire(v, src, migration{kind: MigrateMove, dst: dst})
	if err != nil {
		return rep, AllocEvent{}, err
	}
	ev := l.record(v, now, obs.KindMigrate, dst, iterCost+DefaultSpawnCost+DefaultDestroyCost,
		fmt.Sprintf("%s move %d(core %d)->%d(core %d) staged=%d pins=%d pause=%v",
			v.cfg.Name, src.ID, src.Core, dst.ID, dst.Core, rep.Moved, rep.Pins, rep.Pause))
	return rep, ev, nil
}

// MoveVRI relocates the identified VRI to targetCore (negative = the best
// free core) through the migration engine. It must run on the goroutine that
// dispatches — the single-threaded testbed, or inside the monitor loop; a
// concurrent caller under the live runtime uses Runtime.MoveVRI, which posts
// the request to the monitor. The resulting allocation event is recorded
// like any grow/shrink.
func (l *LVRM) MoveVRI(vrID, vriID, targetCore int) (MigrationReport, error) {
	vrs := l.vrList()
	if vrID < 0 || vrID >= len(vrs) {
		return MigrationReport{}, fmt.Errorf("core: no VR with ID %d", vrID)
	}
	v := vrs[vrID]
	src, ok := snapshotByID(v.vriList(), vriID)
	if !ok {
		return MigrationReport{}, fmt.Errorf("core: VR %s has no VRI %d", v.cfg.Name, vriID)
	}
	rep, _, err := l.moveVRI(v, src, targetCore, 0)
	return rep, err
}
