// Package core implements LVRM itself: the user-space load-aware virtual
// router monitor of Chapters 2 and 3. LVRM is organized exactly as the
// paper's hierarchy (Figure 3.1):
//
//	LVRM
//	├── socket adapter              (internal/netio)
//	└── VR monitor                  — core allocation across VRs
//	    └── VRI monitor (per VR)    — load balancing among the VR's VRIs
//	        └── VRI adapter (per VRI) — load estimation + IPC queues
//	            └── VRI             — the packet engine (internal/vr)
//
// The components are engine-agnostic: the discrete-event testbed drives them
// step by step under virtual time (charging every action's CPU cost to a
// simulated core), and the live Runtime drives the same components with real
// goroutines over the lock-free queues — a VR's only VRI on the monitor
// goroutine itself, each VRI of a larger VR on a worker goroutine of its own.
// Both run a VRI through the same quantum, VRIAdapter.StepBatch(now, max, …):
// pending control events first (up to max, and then nothing else), otherwise
// up to max data frames; the paper's loop is max = 1.
//
// Three subsystems grown beyond the paper's text deserve a map:
//
// Dispatch (dispatch.go) works on the received burst: one clock read, one
// header parse per frame, then one run per VR. A run has two shapes. The
// classic path asks the VR's balancer for a VRI, once per frame. The
// flow-aware path (FlowShards > 0) hashes each frame's 5-tuple onto a
// monitor-owned affinity table (internal/flow) so a flow sticks to one VRI —
// per-flow ordering across VRI spawns, destroys and migrations — and asks the
// balancer only for a new or re-balanced flow: the paper's flow-based
// balancing. Either way the monitor is the only producer onto every VRI's
// incoming rings.
//
// Frame lifetime (internal/packet/pool) is pooled and refcounted: the
// adapter leases buffers, Retain/Release move ownership through dispatch,
// relay and send, and a drained monitor reports any outstanding buffer as a
// leak. Release on an unpooled frame is a no-op, so heap frames flow
// through the same code paths in tests and examples.
//
// VRI lifecycle (lifecycle.go) is an explicit state machine —
// Starting → Running → Draining → Stopped — so destroying an instance under
// live traffic is a drain, not an abort: the instance leaves the dispatch
// list first, then its queue residue is migrated to surviving VRIs, relayed,
// or counted as dropped. Every such transition is one retire, and
// LVRM.Ledger names every place a received frame can be; frame-conservation
// tests hold the monitor to a zero Ledger.Residual.
package core
