package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/cores"
	"lvrm/internal/estimate"
	"lvrm/internal/flow"
	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/rib"
	"lvrm/internal/vr"
)

// This file is LVRM's construction and configuration surface. The data path
// lives in dispatch.go, the allocation pass in alloc.go, and the VRI
// lifecycle (state machine + drain-then-handoff teardown) in lifecycle.go.

// Config configures an LVRM instance.
type Config struct {
	// Adapter is the socket adapter (Section 3.1) frames enter and leave
	// through.
	Adapter netio.Adapter
	// Topology describes the machine; zero selects the paper's 2×4 cores.
	Topology cores.Topology
	// LVRMCore is the core LVRM itself is pinned to.
	LVRMCore int
	// QueueKind selects the IPC queue implementation (default LockFree).
	QueueKind ipc.Kind
	// DataQueueCap and ControlQueueCap size the per-VRI queue pairs.
	DataQueueCap, ControlQueueCap int
	// RecvBatch caps how many frames one adapter poll drains (via
	// netio.RecvBatch), VRIBatch caps how many control events or data
	// frames a VRI worker takes per quantum (VRIAdapter.StepBatch), and
	// RelayBatch caps how many frames RelayOut moves per VRI queue visit.
	// Each defaults to 1, the paper's one item per loop iteration; larger
	// values amortize the queue release/acquire pair and the scheduler
	// round-trip per frame.
	RecvBatch, VRIBatch, RelayBatch int
	// FlowShards enables flow-aware dispatch when > 0: each VR gets a
	// flow-affinity table, owned by the monitor, and dispatch pins flows to
	// VRIs through it, asking the VR's balancer (least-loaded when it has
	// none) only for each new or re-balanced flow rather than per frame. The
	// table is one slab, so past the switch the value only divides
	// FlowTableCap for flow.NewTable. Zero (the default) runs the same
	// dispatch loop without a table: the balancer picks per frame.
	FlowShards int
	// FlowTableCap bounds the pinned flows per VR, in table slots (default
	// 1024; effective capacity is rounded up — see flow.NewTable). The slab
	// is allocated at that capacity, 8 bytes a slot; a new flow whose probe
	// window is full runs unpinned rather than evicting an established one.
	FlowTableCap int
	// FlowAdmitDepth, when > 0 with flow dispatch enabled, is the load-aware
	// admission threshold: a frame of a *new* (unpinned) flow is shed —
	// counted, never enqueued — whenever even the least-loaded VRI's input
	// queue holds at least this many frames. Established flows are exempt:
	// they keep dispatching to their pinned VRI, so overload degrades
	// admission of newcomers before it degrades per-flow consistency of
	// traffic already accepted. Zero (the default) admits everything.
	FlowAdmitDepth int
	// MaxReplicas, when > 1, lets every VR run as up to this many replica
	// VRIs over a flow partition (intra-VR state-compute replication):
	// the split/fold controller replaces the VR's allocation policy, a hot
	// VR splits onto an idle core by migrating half its flow-partition,
	// and a cold VR folds back. Requires FlowShards > 0. VRConfig.
	// MaxReplicas overrides it per VR; 0/1 keeps the paper's
	// one-allocation-unit-per-VRI model exactly. See replicate.go.
	MaxReplicas int
	// SplitFold tunes the split/fold controller for replicated VRs; zero
	// fields select the balance package defaults.
	SplitFold balance.SplitFoldConfig
	// AllocPeriod is the minimum interval between core re-allocation
	// passes; the paper uses 1 second.
	AllocPeriod time.Duration
	// Clock supplies the current time in nanoseconds (virtual in the
	// testbed, wall-clock in the live runtime). Required.
	Clock func() int64
	// AllowSharedLVRMCore lets a VRI fall back onto LVRM's own core when
	// no free core remains, re-creating the contention the paper observes
	// when more cores are requested than the machine has (Experiment 2b).
	AllowSharedLVRMCore bool
	// FramePool, when non-nil, is the frame pool the ingest adapters draw
	// from. The monitor itself never allocates from it — it only needs the
	// handle to export the pool's counters through Obs and to document which
	// pool owns the frames flowing through this instance. All drop paths
	// call Frame.Release regardless, which no-ops on unpooled frames, so a
	// nil FramePool reproduces the seed heap lifecycle exactly.
	FramePool *pool.Pool
	// RIB, when non-nil, is the dynamic control plane (internal/rib) this
	// monitor's VRs forward against. The monitor does not drive it — feeds
	// call RIB.Apply and something (lvrmd's flush ticker, the testbed's
	// scheduled publishes, or RIB.Options.MaxBatch) calls Publish — but
	// registering it here exports the lvrm_rib_*/lvrm_fib_* metric series
	// through Obs and surfaces the RIB on the Status path. Engines consume
	// it via vr.BasicConfig.FIB; VRIs pin one FIB generation per
	// StepBatch quantum (vr.RoutePinner).
	RIB *rib.RIB
	// Obs, when non-nil, receives the monitor's live metrics: dispatch-wait
	// histograms, per-VR/VRI queue gauges, allocation counters, and adapter
	// frame/byte rates. Nil disables metric collection at zero hot-path
	// cost (all instrument handles are nil-safe no-ops).
	Obs *obs.Registry
	// Trace, when non-nil, records allocation decisions, VRI lifecycle
	// events, and sampled balancer picks into a bounded ring buffer.
	Trace *obs.Tracer
}

// Cost model constants (see DESIGN.md calibration).
const (
	// DefaultSpawnCost and DefaultDestroyCost model the VRI lifecycle latency
	// (Figures 4.10-4.11: allocations ≈ 900 µs, deallocations ≈ 700 µs,
	// allocations costlier because of the heavyweight process creation).
	DefaultSpawnCost   = 650 * time.Microsecond
	DefaultDestroyCost = 450 * time.Microsecond
	// DefaultPerVRIMonitorCost is the extra reallocation latency charged per
	// hosted VRI (iterating monitors and load estimates).
	DefaultPerVRIMonitorCost = 25 * time.Microsecond
	// DispatchCost is LVRM's per-frame classification + balancing +
	// enqueue cost on its own core.
	DispatchCost = 45 * time.Nanosecond
	// RelayCost is LVRM's per-frame cost for moving a processed frame
	// from a VRI's outgoing queue to the socket adapter.
	RelayCost = 25 * time.Nanosecond
	// ControlRelayCost is LVRM's cost for relaying one control event
	// between VRIs.
	ControlRelayCost = 1500 * time.Nanosecond
	// QueueHopCost is the cost of one IPC queue transfer (enqueue +
	// dequeue of one entry under lock-free synchronization).
	QueueHopCost = 30 * time.Nanosecond
)

// LVRM is the load-aware virtual router monitor.
type LVRM struct {
	cfg       Config
	allocator *cores.Allocator

	// vrs is copy-on-write: AddVR swaps in a fresh slice under vrsMu while
	// the hot path (Classify, relays) and concurrent Status scrapers read
	// the current snapshot with one atomic load.
	vrs   atomic.Pointer[[]*VR]
	vrsMu sync.Mutex

	// lastAlloc is only touched by the monitor goroutine (or the
	// single-threaded testbed), so it needs no synchronisation.
	lastAlloc int64

	// allocEvents is a ring of the newest maxAllocEvents events; allocTotal
	// counts every event ever recorded, so event i of the process sits in
	// slot i % maxAllocEvents. allocMu guards the ring: the monitor writes it
	// during allocation passes while AllocEvents readers copy it from other
	// goroutines. allocTotal is only stored under allocMu but read without it.
	allocMu     sync.Mutex
	allocEvents []AllocEvent
	allocTotal  atomic.Int64

	ins instruments

	received     atomic.Int64
	unclassified atomic.Int64
	sent         atomic.Int64
	sendErrs     atomic.Int64 // frames consumed from a VRI queue but lost in Adapter.Send
	ctlRelayed   atomic.Int64
	ctlDropped   atomic.Int64

	// recvBuf, burstBuf and relayBuf are the monitor's batch scratch
	// buffers: the received burst, its per-frame parse results (RecvBatch
	// entries each), and the relay burst. Only the monitor goroutine (or the
	// single-threaded testbed) touches them, so they need no synchronisation
	// — the same ownership rule as lastAlloc.
	recvBuf  []*packet.Frame
	burstBuf []parsed
	relayBuf []*packet.Frame

	// OnSpawn is called whenever a VRI is created; the live runtime uses it
	// to start the worker goroutine. OnDestroy is called after a VRI is
	// detached (Draining, off the dispatch list) but BEFORE its queue residue
	// is drained: the hook must stop AND join whatever is consuming the
	// instance's queues, because the drain takes over as the sole consumer.
	// The live runtime joins the worker goroutine here; the single-threaded
	// testbed just unregisters its virtual server.
	OnSpawn   func(*VR, *VRIAdapter)
	OnDestroy func(*VR, *VRIAdapter)

	// OnPause and OnResume bracket a replica split/fold's partition
	// transplant. OnPause must stop AND join whatever consumes the
	// instance's queues (the monitor becomes the sole consumer, making
	// the staging appends race-free); OnResume restarts it. The live
	// runtime wires these to the worker stop/start; the single-threaded
	// testbed leaves them nil — it is its own consumer.
	OnPause  func(*VR, *VRIAdapter)
	OnResume func(*VR, *VRIAdapter)
}

// New constructs an LVRM instance and binds its own core.
func New(cfg Config) (*LVRM, error) {
	if cfg.Adapter == nil {
		return nil, errors.New("core: Config.Adapter is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("core: Config.Clock is required")
	}
	if cfg.Topology.Total() == 0 {
		cfg.Topology = cores.DefaultTopology()
	}
	if cfg.DataQueueCap == 0 {
		cfg.DataQueueCap = 4096
	}
	if cfg.ControlQueueCap == 0 {
		cfg.ControlQueueCap = 256
	}
	if cfg.AllocPeriod == 0 {
		cfg.AllocPeriod = time.Second
	}
	if cfg.RecvBatch < 1 {
		cfg.RecvBatch = 1
	}
	if cfg.VRIBatch < 1 {
		cfg.VRIBatch = 1
	}
	if cfg.RelayBatch < 1 {
		cfg.RelayBatch = 1
	}
	if cfg.FlowShards < 0 {
		cfg.FlowShards = 0
	}
	if cfg.FlowTableCap <= 0 {
		cfg.FlowTableCap = 1024
	}
	if cfg.FlowAdmitDepth < 0 {
		cfg.FlowAdmitDepth = 0
	}
	if cfg.MaxReplicas < 0 {
		cfg.MaxReplicas = 0
	}
	if cfg.MaxReplicas > 1 && cfg.FlowShards <= 0 {
		return nil, errors.New("core: Config.MaxReplicas > 1 requires FlowShards > 0 (replicas partition traffic by flow)")
	}
	allocator, err := cores.NewAllocator(cfg.Topology, cfg.LVRMCore)
	if err != nil {
		return nil, err
	}
	l := &LVRM{cfg: cfg, allocator: allocator, lastAlloc: -int64(cfg.AllocPeriod)}
	l.recvBuf = make([]*packet.Frame, cfg.RecvBatch)
	l.burstBuf = make([]parsed, cfg.RecvBatch)
	l.relayBuf = make([]*packet.Frame, cfg.RelayBatch)
	l.initObs(cfg.Obs, cfg.Trace)
	return l, nil
}

// Config returns the effective configuration.
func (l *LVRM) Config() Config { return l.cfg }

// RIB returns the dynamic control plane this monitor was configured with,
// or nil when it forwards against static tables only.
func (l *LVRM) RIB() *rib.RIB { return l.cfg.RIB }

// Allocator exposes the core allocator for inspection.
func (l *LVRM) Allocator() *cores.Allocator { return l.allocator }

// vrList returns the current VR snapshot with one atomic load.
func (l *LVRM) vrList() []*VR {
	if p := l.vrs.Load(); p != nil {
		return *p
	}
	return nil
}

// VRs returns the hosted VRs. The returned slice is an immutable snapshot,
// safe to iterate while the monitor runs.
func (l *LVRM) VRs() []*VR { return l.vrList() }

// AddVR registers a VR and spawns its initial VRIs. It implements the
// sibling-first placement heuristic through the allocator. It is safe to
// call while the runtime is live: the VR list is swapped copy-on-write, so
// the monitor and Status scrapers always see a consistent snapshot, and
// none of them sees the VR before its initial VRIs exist.
func (l *LVRM) AddVR(cfg VRConfig) (*VR, error) {
	if cfg.Engine == nil {
		return nil, errors.New("core: VRConfig.Engine is required")
	}
	// Outside 0..32 the mask's shift count wraps to a zero mask, and the VR
	// would claim every IPv4 frame ahead of the VRs registered after it.
	if cfg.Classify == nil && (cfg.SrcBits < 0 || cfg.SrcBits > 32) {
		return nil, fmt.Errorf("core: VR %s: SrcBits %d outside 0..32", cfg.Name, cfg.SrcBits)
	}
	if cfg.Balancer == nil && l.cfg.FlowShards == 0 {
		cfg.Balancer = balance.NewJSQ()
	}
	if cfg.Policy == nil {
		cfg.Policy = alloc.NewFixed(max(cfg.InitialVRIs, 1))
	}
	if cfg.InitialVRIs < 1 {
		cfg.InitialVRIs = 1
	}
	l.vrsMu.Lock()
	defer l.vrsMu.Unlock()
	old := l.vrList()
	v := &VR{ID: len(old), cfg: cfg, arrival: estimate.NewArrivalRate(0)}
	v.srcMask = ^uint32(0) << (32 - uint(cfg.SrcBits))
	v.srcNet = uint32(cfg.SrcPrefix) & v.srcMask
	if l.cfg.FlowShards > 0 {
		// NewTable multiplies the two back into one slab's capacity and
		// raises it to at least one probe window.
		v.flows = flow.NewTable(l.cfg.FlowShards, l.cfg.FlowTableCap/l.cfg.FlowShards)
		v.admitDepth = l.cfg.FlowAdmitDepth
	}
	// Effective replica ceiling: per-VR override, else the global knob.
	v.maxReplicas = cfg.MaxReplicas
	if v.maxReplicas == 0 {
		v.maxReplicas = l.cfg.MaxReplicas
	}
	if v.maxReplicas > 1 {
		if v.flows == nil {
			return nil, fmt.Errorf("core: VR %s: MaxReplicas %d requires flow dispatch (Config.FlowShards > 0)", cfg.Name, v.maxReplicas)
		}
		v.splitCtl = balance.NewSplitFold(l.cfg.SplitFold)
	}
	l.initVRObs(v)
	now := l.cfg.Clock()
	for i := 0; i < cfg.InitialVRIs; i++ {
		if _, err := l.growVR(v, now); err != nil {
			return nil, fmt.Errorf("core: spawning initial VRI %d for %s: %w", i, cfg.Name, err)
		}
	}
	if v.replicated() {
		// The engine's state declaration gates replication: an engine with a
		// serialized element cannot yet run as replicas (DESIGN.md §9).
		if vris := v.vriList(); len(vris) > 0 {
			if spec := vr.SpecOf(vris[0].Engine); !spec.Replicable() {
				return nil, fmt.Errorf("core: VR %s: engine %s declares serialized state; cannot replicate", cfg.Name, vris[0].Engine.Name())
			}
		}
	}
	next := make([]*VR, len(old)+1)
	copy(next, old)
	next[len(old)] = v
	l.vrs.Store(&next)
	return v, nil
}

// Ledger says where every frame the monitor ever received is: each terminal
// bucket once, by name, plus the frames still inside live VRIs. It is the one
// statement of frame conservation — the shutdown report, /status, the
// benchmark scenarios and the soak tests all read it instead of re-deriving
// the sum. The counters are sampled one by one, so under live traffic a
// snapshot can be off by the frames that moved meanwhile; once the pipeline
// is quiesced it is exact.
type Ledger struct {
	Received     int64 `json:"received"`     // frames captured from the adapter
	Sent         int64 `json:"sent"`         // frames forwarded to the adapter
	SendErrors   int64 `json:"send_errors"`  // consumed from a VRI queue but lost in Adapter.Send
	Unclassified int64 `json:"unclassified"` // no VR claimed them
	InDrops      int64 `json:"in_drops"`     // refused by a full VRI input queue
	AdmitShed    int64 `json:"admit_shed"`   // new-flow frames shed by load-aware admission
	// EngineDrops and OutDrops sum over every VRI the monitor has run,
	// retired and live: frames the engine dropped (no route, TTL, ...) and
	// frames a full outgoing queue refused.
	EngineDrops int64 `json:"engine_drops"`
	OutDrops    int64 `json:"out_drops"`
	// DrainDropped is migration residue released because no destination
	// could take it.
	DrainDropped int64 `json:"drain_dropped"`
	// InFlight is Σ (handed − settled) over the live VRIs: frames staged,
	// queued, inside a quantum, or finished and waiting for the relay. A
	// retired VRI owes nothing — retire settled all it held.
	InFlight int64 `json:"in_flight"`
}

// Dropped sums the drop buckets: the received frames that will never be sent.
func (g Ledger) Dropped() int64 {
	return g.SendErrors + g.Unclassified + g.InDrops + g.AdmitShed +
		g.EngineDrops + g.OutDrops + g.DrainDropped
}

// Residual is received minus sent, dropped and in flight: the frames the
// monitor has lost track of. Anything but zero after quiesce is a
// conservation bug.
func (g Ledger) Residual() int64 {
	return g.Received - g.Sent - g.Dropped() - g.InFlight
}

// Ledger returns the frame ledger. It is safe to call from any goroutine
// while the runtime processes traffic.
func (l *LVRM) Ledger() Ledger {
	g := Ledger{
		Received:     l.received.Load(),
		Sent:         l.sent.Load(),
		SendErrors:   l.sendErrs.Load(),
		Unclassified: l.unclassified.Load(),
	}
	for _, v := range l.vrList() {
		g.InDrops += v.inDrops.Load()
		g.AdmitShed += v.admitShed.Load()
		g.EngineDrops += v.retiredEngDrops.Load()
		g.OutDrops += v.retiredOutDrops.Load()
		g.DrainDropped += v.drainDropped.Load()
		for _, a := range v.vriList() {
			g.EngineDrops += a.engDrops.Load()
			g.OutDrops += a.outDrops.Load()
			settled := a.settled.Load() // first, as in owes: never reads low
			g.InFlight += a.handed.Load() - settled
		}
	}
	return g
}

// CheckInvariants states the monitor's standing invariants once, for a
// quiesced monitor: traffic has stopped, every queue has been served and
// relayed, and nothing is mid-transition — the condition the soak tests, the
// seeded DES test, lvrmd's clean shutdown and the live-migration scenario all
// reach before they judge. It returns the first violation found, nil when the
// monitor is consistent. What only a caller can know stays with the caller:
// per-flow order at its receiver, and the frame pool's outstanding count
// (the caller may still hold frames of its own). Not safe while the monitor
// runs: it reads the core allocator, which only the monitor goroutine owns.
func (l *LVRM) CheckInvariants() error {
	if g := l.Ledger(); g.Residual() != 0 || g.InFlight != 0 {
		return fmt.Errorf("core: frame ledger does not close: residual %d, in flight %d: %+v", g.Residual(), g.InFlight, g)
	}
	var fibGen uint64
	if l.cfg.RIB != nil {
		fibGen = l.cfg.RIB.FIB().Generation()
	}
	live := 0
	for _, v := range l.vrList() {
		vris := v.vriList()
		for _, a := range vris {
			if a.Core != l.allocator.LVRMCore() {
				live++
			}
			h, s := a.handed.Load(), a.settled.Load()
			if h != s || a.State() != VRIRunning || a.PendingData() != 0 || a.Data.Out.Len() != 0 {
				return fmt.Errorf("core: VRI %s/%d is not at rest: state %v, handed %d, settled %d, pending %d, out %d",
					v.cfg.Name, a.ID, a.State(), h, s, a.PendingData(), a.Data.Out.Len())
			}
			if l.cfg.RIB != nil && a.RouteGeneration() > fibGen {
				return fmt.Errorf("core: VRI %s/%d pinned FIB generation %d, ahead of the RIB's %d",
					v.cfg.Name, a.ID, a.RouteGeneration(), fibGen)
			}
		}
		if v.flows != nil {
			for id, n := range v.flows.PartitionSizes() {
				if _, ok := snapshotByID(vris, id); !ok {
					return fmt.Errorf("core: VR %s: %d flows pinned to VRI %d, which is not live", v.cfg.Name, n, id)
				}
			}
		}
		if m := v.Migrations(); v.retiredVRIs.Load() != m.Drains+m.Folds+m.Moves {
			return fmt.Errorf("core: VR %s retired %d VRIs over %d drains, %d folds and %d moves",
				v.cfg.Name, v.retiredVRIs.Load(), m.Drains, m.Folds, m.Moves)
		}
	}
	// LVRM's own core is bound to the monitor, never to a VRI sharing it.
	if bound := l.allocator.Topology().Total() - l.allocator.FreeCount() - 1; bound != live {
		return fmt.Errorf("core: %d cores bound to VRIs, but %d live VRIs off LVRM's core", bound, live)
	}
	return nil
}

// Stats summarizes LVRM-level counters: the frame ledger (its fields read as
// Stats.Received, Stats.SendErrors, ...) plus control-event and VRI-set
// totals.
type Stats struct {
	Ledger          `json:"ledger"`
	ControlRelayed  int64
	ControlDropped  int64
	VRIsLive        int
	VRIsRetired     int64 // VRIs destroyed through the drain lifecycle
	AllocationCount int   // allocation events ever recorded (AllocEvents keeps the newest)
}

// Stats returns a snapshot of the monitor's counters. It is safe to call
// from any goroutine while the runtime processes traffic.
func (l *LVRM) Stats() Stats {
	live := 0
	var retired int64
	for _, v := range l.vrList() {
		live += v.Cores()
		retired += v.retiredVRIs.Load()
	}
	return Stats{
		Ledger:          l.Ledger(),
		ControlRelayed:  l.ctlRelayed.Load(),
		ControlDropped:  l.ctlDropped.Load(),
		VRIsLive:        live,
		VRIsRetired:     retired,
		AllocationCount: l.AllocCount(),
	}
}
