package core

import (
	"errors"
	"fmt"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/obs"
)

// This file is the intra-VR replication layer (state-compute replication,
// arXiv 2309.14647): a VR with an effective MaxReplicas above 1 runs its
// VRI set as a replica set over a flow partition. The flow-affinity table
// already guarantees every frame of a flow lands on its pinned VRI, so
// replicas process disjoint flow sets and per-flow ordering is free; the
// machinery here is the elastic part — splitting a hot VR onto an idle
// core, folding it back, and moving a hot replica to a better core — all
// through the migration engine (migrate.go), without losing or reordering
// a single frame.
//
// Partition ownership has one source of truth: the flow table's pin. Every
// transition is therefore one engine invocation over (pins, queued
// residue): re-point the pins, then move the already-queued frames of moved
// flows to the new owner's staging queue, which its consumer drains BEFORE
// its ring. Staged frames strictly predate anything dispatch can enqueue
// after the re-pin, so per-flow order is preserved across the hand-off
// (DESIGN.md §10 states the invariants; replicate_test.go and
// migrate_test.go prove them under -race).
//
// All transitions run inside the allocation pass, on the same goroutine
// that dispatches (the monitor loop, or the single-threaded testbed), so
// no frame is dispatched mid-transplant. Consumers are a different matter:
// a live replica's worker goroutine IS concurrent, so the monitor pauses
// the affected consumers (OnPause joins the worker) around the transplant
// and resumes them after (OnResume; the goroutine re-creation publishes
// the staged frames).

// errHold is replicaPass's "no transition this pass".
var errHold = errors.New("core: replica set holds")

// replicaPass is the allocation pass for one replicated VR: sample the
// replica-aware load view, ask the split/fold controller, and execute the
// decision. It replaces the VR's alloc.Policy — Grow/Shrink trade whole
// VRIs between VRs, which is the wrong move for a replica set. Any error
// (errHold, no free core, an engine failure) leaves the set as it is.
func (l *LVRM) replicaPass(v *VR, now int64, iterCost time.Duration) (AllocEvent, error) {
	vris := v.vriList()
	load := balance.VRLoad{
		ArrivalFPS: v.arrival.Estimate(),
		AtCeiling:  len(vris) >= v.maxReplicas,
		FreeCores:  l.allocator.FreeCount(),
		Replicas:   make([]balance.ReplicaLoad, 0, len(vris)),
	}
	for _, a := range vris {
		var svc float64
		if a.SvcEst.Valid() {
			svc = a.SvcEst.Estimate()
		}
		load.Replicas = append(load.Replicas, balance.ReplicaLoad{
			ID: a.ID, Depth: a.PendingData(), ServiceFPS: svc,
		})
	}
	switch v.splitCtl.Decide(now, load) {
	case balance.SplitReplica:
		if len(vris) < v.maxReplicas {
			return l.splitVR(v, now, iterCost)
		}
	case balance.FoldReplica:
		return l.foldVR(v, now, iterCost)
	case balance.MoveReplica:
		// At the replica ceiling a hot VR cannot add capacity, but it can
		// still improve placement: relocate the hottest replica live when a
		// strictly better core exists. The improvement guard is what keeps
		// a lateral move from ping-ponging a replica between equal cores.
		if src := byDepth(vris, true); l.moveImproves(src) {
			_, ev, err := l.moveVRI(v, src, -1, iterCost)
			return ev, err
		}
	}
	return AllocEvent{}, errHold
}

// byDepth returns the replica with the deepest pending backlog (staged +
// ring), or with deepest false the shallowest; the earliest wins a tie.
func byDepth(vris []*VRIAdapter, deepest bool) *VRIAdapter {
	best := vris[0]
	for _, a := range vris[1:] {
		if d, b := a.PendingData(), best.PendingData(); (deepest && d > b) || (!deepest && d < b) {
			best = a
		}
	}
	return best
}

// moveImproves reports whether relocating the replica to the allocator's
// current best free core is a strict placement win: escaping LVRM's own
// over-subscribed core always is; otherwise the target must be on LVRM's
// socket while the current core is not. Equal-rank cores are not a win —
// holding there is what prevents move thrash.
func (l *LVRM) moveImproves(src *VRIAdapter) bool {
	if src.Core == l.allocator.LVRMCore() {
		return true
	}
	best, err := l.allocator.BestCore()
	if err != nil {
		return false
	}
	return l.cfg.Topology.SameSocket(best, l.cfg.LVRMCore) &&
		!l.cfg.Topology.SameSocket(src.Core, l.cfg.LVRMCore)
}

// splitVR spawns one replica and hands it half the hottest replica's flow
// partition, via one MigrateSplit invocation of the engine. The protocol
// (each step's safety argument in DESIGN.md §10):
//
//  1. src = the replica with the deepest pending backlog; dst = a fresh
//     replica spawned through the normal grow path (core bind, OnSpawn).
//  2. Pause both consumers (the monitor becomes the sole owner of their
//     queues and staging; it is already their only producer).
//  3. The engine re-pins every other src flow to dst (the pin flip is the
//     ownership transfer), then drains src's staged + ring residue and
//     routes each frame by its flow's pin: moved flows stage onto dst, the
//     rest stage back onto src, both in original queue order.
//  4. Resume both consumers. dst's staged frames drain before anything
//     dispatch now enqueues to dst's ring.
func (l *LVRM) splitVR(v *VR, now int64, iterCost time.Duration) (AllocEvent, error) {
	src := byDepth(v.vriList(), true)
	dst, err := l.growVR(v, now)
	if err != nil {
		return AllocEvent{}, err
	}

	pauseStart := l.cfg.Clock()
	l.pauseVRI(v, src)
	l.pauseVRI(v, dst)

	// Alternate-flow partition: deterministic, and it halves the moved
	// flows regardless of their key distribution.
	tick := 0
	rep := l.migratePartition(v, migration{
		kind: MigrateSplit, src: src, dst: dst,
		shouldMove: func(uint64) bool {
			tick++
			return tick&1 == 1
		},
		pauseStart: pauseStart,
	})

	l.resumeVRI(v, src)
	l.resumeVRI(v, dst)

	v.splits.Add(1)
	return l.record(v, now, obs.KindAlloc, dst, iterCost+DefaultSpawnCost,
		fmt.Sprintf("%s split %d->%d staged=%d", v.cfg.Name, src.ID, dst.ID, rep.Moved)), nil
}

// foldVR retires the coldest replica and merges its flow partition into the
// least-loaded survivor: retire with one MigrateFold destination. The engine
// re-pins ALL src flows to dst FIRST — from there on dispatch enqueues those
// flows to dst's ring, strictly after the residue about to be staged — and
// then transplants src's staged + ring residue onto dst's staging queue in
// order.
func (l *LVRM) foldVR(v *VR, now int64, iterCost time.Duration) (AllocEvent, error) {
	vris := v.vriList()
	if len(vris) < 2 {
		return AllocEvent{}, fmt.Errorf("core: VR %s has no replica to fold", v.cfg.Name)
	}
	src := byDepth(vris, false)
	rest := make([]*VRIAdapter, 0, len(vris)-1)
	for _, a := range vris {
		if a != src {
			rest = append(rest, a)
		}
	}
	dst := leastLoaded(rest)
	rep, err := l.retire(v, src, migration{kind: MigrateFold, dst: dst})
	if err != nil {
		return AllocEvent{}, err
	}
	v.folds.Add(1)
	return l.record(v, now, obs.KindDealloc, src, iterCost+DefaultDestroyCost,
		fmt.Sprintf("%s fold %d->%d staged=%d", v.cfg.Name, src.ID, dst.ID, rep.Moved)), nil
}

// pauseVRI stops and joins the instance's consumer via the OnPause hook.
// With no hook installed the caller is already the sole consumer (the
// single-threaded testbed).
func (l *LVRM) pauseVRI(v *VR, a *VRIAdapter) {
	if l.OnPause != nil {
		l.OnPause(v, a)
	}
}

// resumeVRI restarts the instance's consumer via the OnResume hook.
func (l *LVRM) resumeVRI(v *VR, a *VRIAdapter) {
	if l.OnResume != nil {
		l.OnResume(v, a)
	}
}
