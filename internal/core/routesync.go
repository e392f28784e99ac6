package core

import (
	"lvrm/internal/vr"
)

// BroadcastRouteUpdate sends a dynamic route change to every VRI of the VR
// through the control queues (Section 3.7's dynamic-routes extension): the
// update is enqueued as one control event per VRI, LVRM relays them with
// control priority, and each VRI applies the change to its private table
// when it consumes the event. The originator is the monitor itself
// (SrcVRI = -1). It returns the number of VRIs addressed.
//
// This is the per-VRI static-table path: each VRI mutates its own cloned
// route.Table, so an update costs one control event per instance. Engines
// backed by the shared internal/rib FIB don't need it — the control plane
// publishes one immutable generation and every VRI picks it up at its next
// scheduling quantum (see vr.RoutePinner).
//
// The VRIs must run a control handler that applies the update — the live
// runtime's RouteSyncHandler, or the testbed's OnControl callback. Like every
// enqueue onto a VRI's incoming queues it must run on the goroutine that
// dispatches — the single-threaded testbed, or a stopped runtime's caller;
// under a running runtime use Runtime.BroadcastRouteUpdate.
func (l *LVRM) BroadcastRouteUpdate(v *VR, u vr.RouteUpdate) int {
	payload := u.Marshal()
	n := 0
	for _, a := range v.VRIs() {
		ev := &ControlEvent{
			SrcVR: v.ID, SrcVRI: -1,
			DstVR: v.ID, DstVRI: a.ID,
			Payload: payload,
			SentAt:  l.cfg.Clock(),
		}
		if l.deliverControl(ev) {
			n++
		}
	}
	return n
}

// RouteSyncHandler is a Runtime.ControlHandler that recognizes RouteUpdate
// control payloads and applies them to the receiving VRI's engine (when the
// engine supports dynamic routes). Foreign payloads are passed to next, if
// any — so route syncing composes with user-specified control protocols.
func RouteSyncHandler(next func(*VR, *VRIAdapter, *ControlEvent)) func(*VR, *VRIAdapter, *ControlEvent) {
	return func(v *VR, a *VRIAdapter, ev *ControlEvent) {
		u, err := vr.ParseRouteUpdate(ev.Payload)
		if err != nil {
			if next != nil {
				next(v, a, ev)
			}
			return
		}
		if updater, ok := a.Engine.(vr.RouteUpdater); ok {
			_, _ = updater.ApplyRouteUpdate(u)
		}
	}
}
