package core

import (
	"fmt"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/obs"
)

// This file is the VR monitor's core-allocation pass (Figure 3.2): decide
// per VR whether to grow or shrink, spawn VRIs onto the best free cores, and
// tear instances down through the lifecycle's drain-then-handoff (retire).

// AllocEvent records one core allocation or deallocation, for the reaction
// time figures of Experiment 2c.
type AllocEvent struct {
	// At is when the decision executed (ns).
	At int64
	// VR identifies the VR whose allocation changed.
	VR int
	// Grow is true for an allocation, false for a deallocation.
	Grow bool
	// Core is the core allocated or released.
	Core int
	// Cores is the VR's core count after the event.
	Cores int
	// Latency is the modeled reaction time of the reallocation: from the
	// start of the VR monitor's iteration to the VRI adapter being
	// created/destroyed.
	Latency time.Duration
}

// growVR allocates the best free core and spawns a VRI on it. With
// AllowSharedLVRMCore, an exhausted machine over-subscribes LVRM's own core
// instead of failing.
func (l *LVRM) growVR(v *VR, now int64) (*VRIAdapter, error) {
	coreID, err := l.allocator.BestCore()
	if err != nil {
		if !l.cfg.AllowSharedLVRMCore {
			return nil, err
		}
		coreID = l.allocator.LVRMCore()
	}
	return l.spawnOn(v, now, coreID)
}

// spawnOn binds the named core and spawns a VRI on it — the placement-aware
// spawn primitive shared by growVR (which picks the best free core) and the
// live-migration engine (which targets a caller-chosen core). LVRM's own core
// is never bound; spawning there is legal only when the config allows
// over-subscription.
func (l *LVRM) spawnOn(v *VR, now int64, coreID int) (*VRIAdapter, error) {
	shared := coreID == l.allocator.LVRMCore()
	if shared && !l.cfg.AllowSharedLVRMCore {
		return nil, fmt.Errorf("core: core %d is LVRM's own and sharing is disabled", coreID)
	}
	if !shared {
		owner := fmt.Sprintf("%s/%d", v.cfg.Name, v.nextID)
		if err := l.allocator.Bind(coreID, owner); err != nil {
			return nil, err
		}
	}
	a, err := v.spawnVRI(coreID, now, l.cfg.QueueKind, l.cfg.DataQueueCap, l.cfg.ControlQueueCap)
	if err != nil {
		if !shared {
			l.allocator.Release(coreID)
		}
		return nil, err
	}
	l.ins.vriSpawns.Inc()
	l.ins.tracer.Record(obs.Event{
		At: now, Kind: obs.KindSpawn, VR: v.ID, VRI: a.ID, Core: a.Core,
		Note: v.cfg.Name,
	})
	if l.OnSpawn != nil {
		l.OnSpawn(v, a)
	}
	return a, nil
}

// shrinkVR retires the VRI on the VR's worst bound core — the highest-numbered
// one, any core off LVRM's socket ranking worse than every core on it — and
// hands its partition and residue to the survivors (retire, MigrateDrain).
func (l *LVRM) shrinkVR(v *VR) (*VRIAdapter, error) {
	var worst *VRIAdapter
	worstRank := -1
	for _, a := range v.vriList() {
		rank := a.Core
		if !l.cfg.Topology.SameSocket(a.Core, l.cfg.LVRMCore) {
			rank += l.cfg.Topology.Total()
		}
		if rank > worstRank {
			worst, worstRank = a, rank
		}
	}
	if worst == nil {
		return nil, fmt.Errorf("core: VR %s has no VRIs to shrink", v.cfg.Name)
	}
	_, err := l.retire(v, worst, migration{kind: MigrateDrain})
	return worst, err
}

// record is the one place a VRI-set transition becomes an AllocEvent: it
// appends the event to the monitor's history and does the counter, reaction
// histogram and trace bookkeeping. kind says which way the VR's allocation
// went — obs.KindAlloc for a grow or a split, obs.KindDealloc for a shrink or
// a fold, obs.KindMigrate for a live move, which trades one core for another
// and so bumps neither allocation counter. a is the instance the event is
// about (spawned, retired, or a move's shadow); latency is the modeled
// reaction time.
func (l *LVRM) record(v *VR, now int64, kind obs.Kind, a *VRIAdapter, latency time.Duration, note string) AllocEvent {
	ev := AllocEvent{
		At: now, VR: v.ID, Grow: kind != obs.KindDealloc, Core: a.Core, Cores: v.Cores(),
		Latency: latency,
	}
	l.allocMu.Lock()
	n := l.allocTotal.Load()
	if n < maxAllocEvents {
		l.allocEvents = append(l.allocEvents, ev)
	} else {
		l.allocEvents[n%maxAllocEvents] = ev
	}
	l.allocTotal.Store(n + 1)
	l.allocMu.Unlock()
	switch kind {
	case obs.KindAlloc:
		l.ins.allocGrow.Inc()
	case obs.KindDealloc:
		l.ins.allocShrink.Inc()
	}
	l.ins.allocReaction.Observe(int64(latency))
	l.ins.tracer.Record(obs.Event{
		At: now, Kind: kind, VR: v.ID, VRI: a.ID, Core: a.Core,
		Value: float64(latency), Note: note,
	})
	return ev
}

// MaybeAllocate runs one core-allocation pass if at least AllocPeriod has
// elapsed since the previous one (Figure 3.2's pacing rule). It returns the
// allocation events performed.
func (l *LVRM) MaybeAllocate(now int64) []AllocEvent {
	if now-l.lastAlloc < int64(l.cfg.AllocPeriod) {
		return nil
	}
	l.lastAlloc = now
	return l.Allocate(now)
}

// Allocate runs the VR monitor's allocation pass unconditionally: for each
// VR, evaluate its policy against the current load snapshot and grow or
// shrink by at most one core (Figure 3.2's "allocate").
func (l *LVRM) Allocate(now int64) []AllocEvent {
	var events []AllocEvent
	vrs := l.vrList()
	totalVRIs := 0
	for _, v := range vrs {
		totalVRIs += v.Cores()
	}
	// Iterating VR monitors and retrieving load estimates costs more with
	// more VRIs — the effect Experiment 2c measures on reaction latency.
	iterCost := time.Duration(totalVRIs) * DefaultPerVRIMonitorCost
	for _, v := range vrs {
		// A replicated VR's core count is owned by the split/fold
		// controller, not its allocation policy: Grow/Shrink trade whole
		// VRIs between VRs, which would fight the partition transplant.
		if v.replicated() {
			if ev, err := l.replicaPass(v, now, iterCost); err == nil {
				events = append(events, ev)
			}
			continue
		}
		s := alloc.Snapshot{
			Cores:             v.Cores(),
			ArrivalRate:       v.arrival.Estimate(),
			ServiceRatePerVRI: v.ServiceRatePerVRI(),
			FreeCores:         l.allocator.FreeCount(),
			MaxCores:          v.cfg.MaxVRIs,
		}
		// A transition that fails (no free core after all, nothing to
		// shrink) holds the VR where it is.
		switch v.cfg.Policy.Decide(s) {
		case alloc.Grow:
			if a, err := l.growVR(v, now); err == nil {
				events = append(events, l.record(v, now, obs.KindAlloc, a, iterCost+DefaultSpawnCost, v.cfg.Name))
			}
		case alloc.Shrink:
			if a, err := l.shrinkVR(v); err == nil {
				events = append(events, l.record(v, now, obs.KindDealloc, a, iterCost+DefaultDestroyCost, v.cfg.Name))
			}
		}
	}
	return events
}

// maxAllocEvents bounds the allocation history a long-running monitor keeps;
// the paper's figures and the baselines record a few hundred events at most.
const maxAllocEvents = 4096

// AllocCount returns how many allocation events have ever been recorded.
func (l *LVRM) AllocCount() int { return int(l.allocTotal.Load()) }

// AllocEvents returns a copy of the newest allocation events, oldest first:
// all of them until maxAllocEvents have been recorded, the newest
// maxAllocEvents from then on.
func (l *LVRM) AllocEvents() []AllocEvent {
	l.allocMu.Lock()
	defer l.allocMu.Unlock()
	// head is the slot the next event goes to: the end of a ring still
	// filling, the oldest event of a full one.
	head := int(l.allocTotal.Load() % maxAllocEvents)
	out := make([]AllocEvent, 0, len(l.allocEvents))
	out = append(out, l.allocEvents[head:]...)
	return append(out, l.allocEvents[:head]...)
}
