package testbed

import (
	"time"

	"lvrm/internal/core"
	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/sim"
)

// AffinityMode controls where VRI work executes relative to the LVRM core,
// for Experiment 2a. Auto derives the placement from the allocator
// (sibling-first); the explicit modes force a placement for every VRI.
type AffinityMode int

const (
	// AffinityAuto uses the allocator's sibling-first placement and
	// charges the cross-socket penalty only for non-sibling cores.
	AffinityAuto AffinityMode = iota
	// AffinitySibling forces sibling placement (no penalty).
	AffinitySibling
	// AffinityNonSibling forces cross-socket placement.
	AffinityNonSibling
	// AffinitySame runs the VRI on the LVRM core itself: two processes
	// contend for one core.
	AffinitySame
	// AffinityOSDefault lets the "kernel" place the VRI: it migrates
	// between sockets and pays occasional context-switch penalties.
	AffinityOSDefault
)

// Placement cost constants (see DESIGN.md calibration and Experiment 2a).
const (
	// CrossSocketPenalty is the extra per-frame cost of queue cache lines
	// bouncing between sockets when a VRI is on the other CPU.
	CrossSocketPenalty = 600 * time.Nanosecond
	// ContextSwitchCost is charged when the OS migrates or preempts the
	// VRI process ("default" and "same" placements).
	ContextSwitchCost = 6 * time.Microsecond
	// MigrationProb is the per-frame chance the OS-default placement
	// migrates the VRI to another core.
	MigrationProb = 0.08
	// RemoteProb is the chance a kernel-placed VRI currently sits on the
	// other socket.
	RemoteProb = 0.6
	// SameCoreSwitchCost is the per-frame process-switch overhead when
	// LVRM and the VRI share one core.
	SameCoreSwitchCost = 2 * time.Microsecond
	// RecvPollDelay and VRIPollDelay model the latency of the non-blocking
	// polling loops: a frame waits this long before the idle poller notices
	// it (latency only; the core is not occupied).
	RecvPollDelay = 4 * time.Microsecond
	VRIPollDelay  = 4 * time.Microsecond
)

// LVRMGatewayConfig configures the simulated LVRM deployment: the monitor
// under test, and the DES cost model and placement it runs under.
type LVRMGatewayConfig struct {
	Eng *sim.Engine
	// Monitor configures the hosted monitor; every monitor option (topology,
	// queues, allocation pacing, flow dispatch, replication, ...) is declared
	// there and nowhere else. The gateway fills in what it owns — Adapter
	// (its capture/transmit rings), Clock (Eng.Now) and a DataQueueCap
	// defaulting to 4096, which also sizes the capture ring — and hands the
	// rest to core.New untouched. The testbed is single-threaded, so
	// FlowShards exercises the flow table's semantics (affinity, epochs,
	// overflow) under virtual time rather than its parallelism; combine with
	// ExtraDispatchCost to model the lookup's per-frame cost.
	Monitor core.Config
	// Mechanism selects the socket adapter cost model (RawSocket, PFRing,
	// PFRingV1, Memory).
	Mechanism netio.Mechanism
	// Affinity is the VRI placement mode (Experiment 2a).
	Affinity AffinityMode
	// ExtraDispatchCost adds per-frame monitor-core cost to the dispatch
	// path, e.g. flow-based balancing's connection tracking (the flow
	// table's lookup plus the times() call the paper measures in
	// Experiment 3c).
	ExtraDispatchCost time.Duration
	// Seed feeds the placement randomness of AffinityOSDefault.
	Seed uint64
	// Out receives forwarded frames (required).
	Out func(f *packet.Frame, outIf int)
	// OnControl, if set, observes every control event a VRI consumes.
	OnControl func(ev *core.ControlEvent, at int64)
}

// LVRMGateway drives a real core.LVRM instance under virtual time: every
// receive, dispatch, VRI service, relay and allocation charges its CPU cost
// to the simulated core it runs on.
type LVRMGateway struct {
	cfg  LVRMGatewayConfig
	eng  *sim.Engine
	lvrm *core.LVRM
	qa   *netio.QueueAdapter

	lvrmCore *CoreServer
	coreSrv  map[int]*CoreServer
	// servers is kept in spawn order (not a map) so that kickAll visits
	// VRIs deterministically — the whole simulation must replay exactly
	// from a seed.
	servers []*vriServer
	costs   netio.CostModel
	ioSplit [3]float64
	rng     *sim.Rand

	seenAllocs int // allocation events already charged (of LVRM.AllocCount)
	rxDrops    int64
}

// NewLVRMGateway builds the gateway. Add VRs with AddVR before traffic.
func NewLVRMGateway(cfg LVRMGatewayConfig) (*LVRMGateway, error) {
	if cfg.Monitor.DataQueueCap == 0 {
		cfg.Monitor.DataQueueCap = 4096
	}
	qa := netio.NewQueueAdapter(cfg.Mechanism, cfg.Monitor.DataQueueCap)
	cfg.Monitor.Adapter, cfg.Monitor.Clock = qa, cfg.Eng.Now
	g := &LVRMGateway{
		cfg:     cfg,
		eng:     cfg.Eng,
		qa:      qa,
		coreSrv: make(map[int]*CoreServer),
		costs:   netio.Costs(cfg.Mechanism),
		rng:     sim.NewRand(cfg.Seed + 1),
	}
	// How the I/O mechanism's CPU time shows up in top (Figure 4.3):
	// raw sockets burn syscall (system) time; PF_RING polls from user
	// space with the DMA work appearing as softirq; the memory backend
	// is pure user-space copying.
	switch cfg.Mechanism {
	case netio.RawSocket:
		g.ioSplit = [3]float64{0.3, 0.6, 0.1}
	case netio.PFRing, netio.PFRingV1:
		// The polled zero-copy ring leaves most of the I/O work to the
		// NIC's DMA engine (softirq-accounted); only a sliver runs in the
		// user-space poll loop, which is why PF_RING's user CPU time sits
		// below the raw socket's even at twice the frame rate (Fig. 4.3).
		g.ioSplit = [3]float64{0.15, 0.1, 0.75}
	default:
		g.ioSplit = [3]float64{1, 0, 0}
	}
	l, err := core.New(cfg.Monitor)
	if err != nil {
		return nil, err
	}
	g.lvrm = l
	g.lvrmCore = g.coreServer(l.Allocator().LVRMCore())
	l.OnSpawn = g.onSpawn
	l.OnDestroy = g.onDestroy
	return g, nil
}

// LVRM exposes the monitor (for stats and VR management).
func (g *LVRMGateway) LVRM() *core.LVRM { return g.lvrm }

// MonitorCore exposes the LVRM core's server for CPU accounting.
func (g *LVRMGateway) MonitorCore() *CoreServer { return g.lvrmCore }

// RxDrops returns frames lost on the capture ring.
func (g *LVRMGateway) RxDrops() int64 { return g.rxDrops }

// AddVR registers a VR on the monitor.
func (g *LVRMGateway) AddVR(cfg core.VRConfig) (*core.VR, error) {
	return g.lvrm.AddVR(cfg)
}

func (g *LVRMGateway) coreServer(id int) *CoreServer {
	if s, ok := g.coreSrv[id]; ok {
		return s
	}
	s := NewCoreServer(g.eng, id)
	g.coreSrv[id] = s
	return s
}

// Arrive implements Gateway: the frame lands on the capture ring, and after
// the polling delay the monitor core receives, classifies and dispatches it.
func (g *LVRMGateway) Arrive(f *packet.Frame, in int) {
	f.In = in
	if !g.qa.Inject(f) {
		g.rxDrops++
		f.Release() // capture-ring tail drop: the gateway owned the frame
		return
	}
	size := len(f.Buf)
	g.eng.Schedule(RecvPollDelay, func() {
		ioCost := g.costs.RecvCost(size)
		total := ioCost + core.DispatchCost + core.QueueHopCost + g.cfg.ExtraDispatchCost
		g.lvrmCore.ExecSplit(total, g.mixSplit(ioCost, total), func() {
			if g.lvrm.RecvDispatchBatch(1) > 0 {
				g.chargeNewAllocations()
				g.kickAll()
			}
		})
	})
}

// mixSplit blends the I/O split (for ioCost) with pure user time for the
// remainder of a total task cost.
func (g *LVRMGateway) mixSplit(ioCost, total time.Duration) [3]float64 {
	if total <= 0 {
		return [3]float64{1, 0, 0}
	}
	ioFrac := float64(ioCost) / float64(total)
	var s [3]float64
	for i := range s {
		s[i] = g.ioSplit[i] * ioFrac
	}
	s[User] += 1 - ioFrac
	return s
}

// chargeNewAllocations occupies the monitor core for the reaction latency of
// any allocation events the last dispatch triggered.
func (g *LVRMGateway) chargeNewAllocations() {
	fresh := g.lvrm.AllocCount() - g.seenAllocs
	if fresh == 0 {
		return
	}
	g.seenAllocs += fresh
	events := g.lvrm.AllocEvents()
	for _, ev := range events[max(0, len(events)-fresh):] {
		g.lvrmCore.Exec(ev.Latency, System, nil)
	}
}

// kickAll nudges every VRI server to look at its queues.
func (g *LVRMGateway) kickAll() {
	for _, s := range g.servers {
		if !s.stopped {
			s.kick()
		}
	}
}

// PumpControl schedules the monitor to relay pending control events; call
// it after enqueueing control events from outside the data path.
func (g *LVRMGateway) PumpControl() {
	g.scheduleControlRelay()
}

// ControlCopyPerByte is the monitor's per-byte cost of relaying a control
// event's payload between the shared-memory queues (Figure 4.7's growth
// with event size).
const ControlCopyPerByte = 2.0 // ns per payload byte

func (g *LVRMGateway) scheduleControlRelay() {
	cost := core.ControlRelayCost
	// Size the copy cost from the pending events across all VRIs.
	for _, s := range g.servers {
		if q, ok := s.a.Control.Out.(*ipc.SPSC[*core.ControlEvent]); ok {
			if ev, ok := q.Peek(); ok {
				cost += time.Duration(float64(len(ev.Payload)) * ControlCopyPerByte)
			}
		}
	}
	g.lvrmCore.Exec(cost, User, func() {
		if g.lvrm.RelayControl() > 0 {
			g.kickAll()
		}
	})
}

// scheduleRelay moves one processed frame from a VRI's outgoing queue to
// the wire, charging the monitor core (plus any placement penalty for
// reaching the VRI's queues across sockets).
func (g *LVRMGateway) scheduleRelay(a *core.VRIAdapter, size int, placementExtra time.Duration) {
	ioCost := g.costs.SendCost(size)
	total := ioCost + core.RelayCost + core.QueueHopCost + placementExtra
	g.lvrmCore.ExecSplit(total, g.mixSplit(ioCost, total), func() {
		if g.lvrm.RelayFrom(a, 1) == 1 {
			g.drainTx()
		}
	})
}

// drainTx hands every frame on the simulated NIC's TX ring to the output.
func (g *LVRMGateway) drainTx() {
	for {
		f, ok := g.qa.Harvest()
		if !ok {
			return
		}
		g.cfg.Out(f, f.Out)
	}
}

// onSpawn attaches a simulated execution server to a freshly spawned VRI.
func (g *LVRMGateway) onSpawn(v *core.VR, a *core.VRIAdapter) {
	srv := &vriServer{g: g, vr: v, a: a}
	topo := g.lvrm.Allocator().Topology()
	lvrmCoreID := g.lvrm.Allocator().LVRMCore()
	switch g.cfg.Affinity {
	case AffinitySame:
		srv.core = g.lvrmCore
		srv.extra = func() time.Duration { return SameCoreSwitchCost }
		srv.relayExtra = func() time.Duration { return SameCoreSwitchCost }
	case AffinitySibling:
		srv.core = g.coreServer(a.Core)
	case AffinityNonSibling:
		srv.core = g.coreServer(a.Core)
		srv.cross = true
		srv.relayExtra = func() time.Duration { return CrossSocketPenalty }
	case AffinityOSDefault:
		// The kernel may place the VRI anywhere and migrate it; the
		// monitor pays cross-socket queue traffic most of the time and
		// the VRI pays occasional context switches.
		srv.core = g.coreServer(a.Core)
		srv.extra = func() time.Duration {
			if g.rng.Float64() < MigrationProb {
				return ContextSwitchCost
			}
			return 0
		}
		srv.relayExtra = func() time.Duration {
			var d time.Duration
			if g.rng.Float64() < RemoteProb {
				d += CrossSocketPenalty
			}
			// A migration invalidates the queues' cache lines wholesale;
			// the monitor's next access stalls on the refill.
			if g.rng.Float64() < MigrationProb {
				d += ContextSwitchCost
			}
			return d
		}
	default: // AffinityAuto
		srv.core = g.coreServer(a.Core)
		if a.Core == lvrmCoreID {
			// Over-subscribed onto the monitor's core: both processes
			// pay the switch overhead (Experiment 2b's contention).
			srv.extra = func() time.Duration { return SameCoreSwitchCost }
			srv.relayExtra = func() time.Duration { return SameCoreSwitchCost }
			break
		}
		srv.cross = !topo.SameSocket(a.Core, lvrmCoreID)
		if srv.cross {
			srv.relayExtra = func() time.Duration { return CrossSocketPenalty }
		}
	}
	g.servers = append(g.servers, srv)
}

// onDestroy detaches the server of a killed VRI.
func (g *LVRMGateway) onDestroy(_ *core.VR, a *core.VRIAdapter) {
	for i, srv := range g.servers {
		if srv.a == a {
			srv.stopped = true
			g.servers = append(g.servers[:i], g.servers[i+1:]...)
			return
		}
	}
}

// vriServer executes one VRI's work on its bound core under virtual time.
type vriServer struct {
	g     *LVRMGateway
	vr    *core.VR
	a     *core.VRIAdapter
	core  *CoreServer
	cross bool // charge CrossSocketPenalty on the VRI side per frame
	// extra is per-frame placement overhead on the VRI's core;
	// relayExtra is per-frame overhead on the monitor core's relay path.
	// Either may be nil.
	extra      func() time.Duration
	relayExtra func() time.Duration
	busy       bool
	stopped    bool
}

// kick starts service if the VRI is idle and has work, after the polling
// delay (the VRI was blocked polling an empty queue).
func (s *vriServer) kick() {
	if s.busy || s.stopped {
		return
	}
	if s.a.PendingData() == 0 && s.a.Control.In.Len() == 0 {
		return
	}
	s.busy = true
	s.g.eng.Schedule(VRIPollDelay, s.serve)
}

// serve performs one quantum of one item (StepBatch at max 1) and charges
// its cost; on completion it relays the output and continues while work
// remains.
func (s *vriServer) serve() {
	if s.stopped {
		s.busy = false
		return
	}
	// Identify the frame about to be served so the relay can size the
	// transmit cost exactly (control events have priority and no relay).
	var frameSize int
	if s.a.Control.In.Len() == 0 {
		// Staged transplant residue is served before the ring, so its head
		// sizes the relay when present.
		if f, ok := s.a.NextStaged(); ok {
			frameSize = len(f.Buf)
		} else if q, ok := s.a.Data.In.(interface{ Peek() (*packet.Frame, bool) }); ok {
			// The lock-free ring exposes Peek; the mutex baseline does not.
			if f, ok := q.Peek(); ok {
				frameSize = len(f.Buf)
			}
		}
	}
	res := s.a.StepBatch(s.g.eng.Now(), 1, s.onControl)
	if !res.Did() {
		s.busy = false
		return
	}
	cost := res.Cost + core.QueueHopCost
	if s.cross {
		cost += CrossSocketPenalty
	}
	if s.extra != nil {
		cost += s.extra()
	}
	s.core.Exec(cost, User, func() {
		if s.stopped {
			s.busy = false
			return
		}
		if s.a.Data.Out.Len() > 0 {
			var extra time.Duration
			if s.relayExtra != nil {
				extra = s.relayExtra()
			}
			s.g.scheduleRelay(s.a, frameSize, extra)
		}
		if s.a.Control.Out.Len() > 0 {
			s.g.scheduleControlRelay()
		}
		if s.a.PendingData() > 0 || s.a.Control.In.Len() > 0 {
			s.serve() // queue still backed up: keep the core hot
			return
		}
		s.busy = false
	})
}

func (s *vriServer) onControl(ev *core.ControlEvent) {
	if s.g.cfg.OnControl != nil {
		s.g.cfg.OnControl(ev, s.g.eng.Now())
	}
}

var _ Gateway = (*LVRMGateway)(nil)
