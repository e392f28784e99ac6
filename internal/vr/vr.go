// Package vr defines the virtual router instance (VRI) engines that LVRM
// hosts (Sections 3.7 and 3.8). A VRI engine is the packet-processing brain
// of one VRI process: it receives raw frames from its LVRM adapter, decides
// the output interface (or a drop), and hands the frame back.
//
// Two engines ship, matching the paper's two hosted VR types:
//
//   - Basic ("C++ VR"): a minimal forwarder — parse, decrement TTL, look up
//     the static route table loaded from a map file, rewrite MACs, forward.
//   - Click VR (subpackage click): a modular router in the style of the
//     Click Modular Router, whose element-graph traversal makes it the
//     heavier VR in every experiment.
//
// Process returns the simulated CPU cost of handling the frame; the testbed
// charges it to the VRI's core, and the live runtime may optionally burn it
// for load emulation. This is how the paper's "dummy processing load of
// 1/60 ms" (Experiments 2b-3b) enters the system.
package vr

import (
	"errors"
	"time"

	"lvrm/internal/packet"
	"lvrm/internal/rib"
	"lvrm/internal/route"
)

// Engine is a VRI's frame processor.
type Engine interface {
	// Process handles one frame in place: on a forward decision it sets
	// f.Out to the output interface (and typically rewrites MACs); on a
	// drop it sets f.Out = -1. The returned duration is the simulated CPU
	// cost of this frame. A non-nil error also means drop.
	Process(f *packet.Frame) (time.Duration, error)
	// Name identifies the engine variant ("basic", "click").
	Name() string
}

// Factory builds a fresh engine for each spawned VRI. VRIs of the same VR
// share routing policy but own their engine state (counters etc.), which is
// why the VRI monitor clones engines through a factory rather than sharing
// one.
type Factory func() (Engine, error)

// Drop decisions use this sentinel on Frame.Out.
const Drop = -1

// Errors returned by the basic engine.
var (
	ErrNotIPv4  = errors.New("vr: not an IPv4 frame")
	ErrTTLDead  = errors.New("vr: TTL expired")
	ErrNoRoute  = errors.New("vr: no route to destination")
	ErrBadFrame = errors.New("vr: malformed frame")
)

// RoutePinner is implemented by engines that resolve routes against an
// epoch-swapped FIB (internal/rib). The VRI monitor calls PinRoutes once at
// the top of each StepBatch quantum; every frame processed in that
// quantum then sees one consistent routing generation, even while the
// control plane publishes new ones concurrently. PinRoutes returns the
// pinned generation number (0 when the engine has no FIB).
type RoutePinner interface {
	PinRoutes() uint64
}

// BatchEngine is an optional capability of an Engine: processing a whole
// scheduling quantum in one call, so that work the frames have in common —
// above all the route lookups' cache misses — is shared or overlapped. The
// VRI monitor asserts it once at spawn and, when the engine has it, calls
// ProcessBatch for the quantum instead of Process per frame; an engine
// without it (Click, or any decorator that wraps Engine alone) is driven
// frame by frame as before. It is a separate interface because Engine has
// implementers a change here cannot reach — decorators that wrap an engine to
// time it or to damage a frame implement Engine alone — and a new method on
// Engine would break every one of them.
type BatchEngine interface {
	Engine
	// ProcessBatch handles every frame in place exactly as Process would, in
	// order, and returns their summed simulated cost. A drop is reported
	// the one way the caller already reads it: f.Out == Drop.
	ProcessBatch(frames []*packet.Frame) time.Duration
}

// BasicConfig configures the minimal forwarder.
type BasicConfig struct {
	// Routes is the static route table (from the VR's map file).
	Routes *route.Table
	// FIB, when set, is the dynamic forwarding table published by the
	// control plane (internal/rib) and takes precedence over Routes.
	// Unlike Routes it is shared — not cloned — across a VR's VRIs:
	// generations are immutable, so concurrent lookups need no locks and
	// no private copies. Each VRI pins one generation per scheduling
	// quantum (see RoutePinner).
	FIB *rib.FIB
	// IfMAC maps output interface index -> source MAC to stamp on
	// forwarded frames. Missing entries keep the original MAC.
	IfMAC map[int]packet.MAC
	// NextHopMAC resolves a next-hop (or destination) IP to the
	// destination MAC. Nil keeps the original destination MAC, which is
	// fine for the point-to-point testbed links.
	NextHopMAC func(packet.IP) (packet.MAC, bool)
	// BaseCost is the simulated per-frame CPU cost of the forwarding code
	// itself; zero selects DefaultBasicCost.
	BaseCost time.Duration
	// PerByteCost adds size-dependent cost in ns/byte (frame touch cost).
	PerByteCost float64
	// DummyLoad is the artificial extra per-frame load the experiments
	// inject (e.g. 1/60 ms) to make VRIs CPU-bound.
	DummyLoad time.Duration
	// ARP, when set, makes the engine interpret address resolution
	// (Section 3.7): learn sender bindings and answer requests for its
	// own interface addresses. Without it, ARP frames drop as non-IPv4.
	ARP *ARPConfig
}

// DefaultBasicCost approximates the paper's C++ VR: with the memory backend
// the full LVRM path does ~270 ns/frame at 84 B (3.7 Mfps), of which the
// VR's own forwarding is a modest slice.
const DefaultBasicCost = 60 * time.Nanosecond

// Basic is the "C++ VR": a minimal data forwarding engine.
type Basic struct {
	cfg       BasicConfig
	pinned    *rib.Gen // FIB generation pinned for the current quantum
	forwarded int64
	dropped   int64

	// ProcessBatch's scratch, grown to the quantum's size on first use: the
	// admitted frames awaiting a route, their destinations, and the batch
	// lookup's results from whichever table the engine routes by.
	pend      []*packet.Frame
	dsts      []packet.IP
	fibOut    []*rib.Route
	staticOut []*route.Entry
}

// NewBasic builds a minimal forwarder. A nil route table is allowed; every
// frame then drops with ErrNoRoute, which keeps misconfiguration visible.
func NewBasic(cfg BasicConfig) *Basic {
	if cfg.BaseCost == 0 {
		cfg.BaseCost = DefaultBasicCost
	}
	return &Basic{cfg: cfg}
}

// BasicFactory returns a Factory producing independent Basic engines with
// the same configuration. Each engine gets a private copy of the route
// table, so dynamic route updates applied to one VRI never race with
// another VRI's lookups (VRIs are separate processes in the paper). A FIB,
// by contrast, is shared as-is: its immutable epoch-swapped generations
// make concurrent readers safe without copies.
func BasicFactory(cfg BasicConfig) Factory {
	return func() (Engine, error) {
		c := cfg
		if c.Routes != nil {
			c.Routes = c.Routes.Clone()
		}
		return NewBasic(c), nil
	}
}

// Process implements the minimal routing of Section 3.7: validate, decrement
// TTL, longest-prefix-match, rewrite MACs, pick the output interface.
func (b *Basic) Process(f *packet.Frame) (time.Duration, error) {
	cost := b.cost(f)
	dst, route, err := b.admit(f)
	if !route {
		return cost, err
	}
	var (
		outIf   int
		nextHop packet.IP
	)
	switch {
	case b.cfg.FIB != nil:
		rt, ok := b.generation().Lookup(dst)
		if !ok {
			return cost, b.drop(f, ErrNoRoute)
		}
		outIf, nextHop = rt.OutIf, rt.NextHop
	case b.cfg.Routes != nil:
		e, err := b.cfg.Routes.Lookup(dst)
		if err != nil {
			return cost, b.drop(f, ErrNoRoute)
		}
		outIf, nextHop = e.OutIf, e.NextHop
	default:
		return cost, b.drop(f, ErrNoRoute)
	}
	b.forward(f, dst, outIf, nextHop)
	return cost, nil
}

// ProcessBatch implements BatchEngine: Process for every frame of a quantum,
// with the route lookups of the quantum done together. Every frame is
// validated first (admit), the destinations of those that need a route are
// resolved in one LookupBatch call against one table — the generation pinned
// for the quantum, or the static table — and then each is rewritten (forward) or
// dropped. Frames, counters and summed cost come out as from per-frame
// Process calls: a lookup has no side effect, so moving it changes nothing,
// and the one step that has — an ARP frame teaching the cache that forward's
// NextHopMAC may read — keeps its place, the frames ahead of it being
// finished before it is handled.
func (b *Basic) ProcessBatch(frames []*packet.Frame) time.Duration {
	var total time.Duration
	for _, f := range frames {
		total += b.cost(f)
		if b.cfg.ARP != nil && len(f.Buf) >= packet.EthHeaderLen && f.EtherType() == packet.EtherTypeARP {
			b.routePending()
		}
		if dst, route, _ := b.admit(f); route {
			b.pend = append(b.pend, f)
			b.dsts = append(b.dsts, dst)
		}
	}
	b.routePending()
	return total
}

// routePending resolves and finishes the frames ProcessBatch has admitted so
// far, leaving the scratch slices empty and holding no reference.
func (b *Basic) routePending() {
	n := len(b.pend)
	if n == 0 {
		return
	}
	switch {
	case b.cfg.FIB != nil:
		if cap(b.fibOut) < n {
			b.fibOut = make([]*rib.Route, n)
		}
		out := b.fibOut[:n]
		b.generation().LookupBatch(b.dsts, out)
		for i, rt := range out {
			if rt == nil {
				b.drop(b.pend[i], ErrNoRoute)
				continue
			}
			b.forward(b.pend[i], b.dsts[i], rt.OutIf, rt.NextHop)
		}
		clear(out)
	case b.cfg.Routes != nil:
		if cap(b.staticOut) < n {
			b.staticOut = make([]*route.Entry, n)
		}
		out := b.staticOut[:n]
		b.cfg.Routes.LookupBatch(b.dsts, out)
		for i, e := range out {
			if e == nil {
				b.drop(b.pend[i], ErrNoRoute)
				continue
			}
			b.forward(b.pend[i], b.dsts[i], e.OutIf, e.NextHop)
		}
		clear(out)
	default:
		for _, f := range b.pend {
			b.drop(f, ErrNoRoute)
		}
	}
	clear(b.pend)
	b.pend, b.dsts = b.pend[:0], b.dsts[:0]
}

// cost is the simulated CPU cost of handling f, whatever becomes of it.
func (b *Basic) cost(f *packet.Frame) time.Duration {
	return b.cfg.BaseCost +
		time.Duration(float64(len(f.Buf))*b.cfg.PerByteCost) +
		b.cfg.DummyLoad
}

// drop marks f dropped for the given reason and returns it.
func (b *Basic) drop(f *packet.Frame, err error) error {
	f.Out = Drop
	b.dropped++
	return err
}

// admit is everything Process does before the route lookup: validate the
// frame, interpret ARP, decrement the TTL. route reports that f is a live
// IPv4 frame to be forwarded towards dst; otherwise f is finished — dropped,
// or turned into an ARP reply — and err is what Process returns for it.
func (b *Basic) admit(f *packet.Frame) (dst packet.IP, route bool, err error) {
	if len(f.Buf) < packet.EthHeaderLen {
		return 0, false, b.drop(f, ErrBadFrame)
	}
	if f.EtherType() != packet.EtherTypeIPv4 {
		if b.cfg.ARP != nil && f.EtherType() == packet.EtherTypeARP {
			replied, err := HandleARP(*b.cfg.ARP, f)
			if err != nil {
				return 0, false, b.drop(f, ErrBadFrame)
			}
			if replied {
				b.forwarded++
				return 0, false, nil
			}
			b.dropped++
			return 0, false, nil // learned/ignored, not an error
		}
		return 0, false, b.drop(f, ErrNotIPv4)
	}
	ipb := f.Buf[packet.EthHeaderLen:]
	h, _, err := packet.ParseIPv4(ipb)
	if err != nil {
		return 0, false, b.drop(f, ErrBadFrame)
	}
	alive, err := packet.DecTTL(ipb)
	if err != nil {
		return 0, false, b.drop(f, ErrBadFrame)
	}
	if !alive {
		return 0, false, b.drop(f, ErrTTLDead)
	}
	return h.Dst, true, nil
}

// generation returns the FIB generation to resolve against: the one pinned
// for the quantum, or — never pinned, the engine being driven outside a
// StepBatch quantum — the current one.
func (b *Basic) generation() *rib.Gen {
	if b.pinned != nil {
		return b.pinned
	}
	return b.cfg.FIB.Snapshot()
}

// forward is everything Process does after the route lookup: set the output
// interface and rewrite the MACs for the hop.
func (b *Basic) forward(f *packet.Frame, dst packet.IP, outIf int, nextHop packet.IP) {
	f.Out = outIf
	if mac, ok := b.cfg.IfMAC[outIf]; ok {
		f.SetSrcMAC(mac)
	}
	if b.cfg.NextHopMAC != nil {
		hop := nextHop
		if hop == 0 {
			hop = dst
		}
		if mac, ok := b.cfg.NextHopMAC(hop); ok {
			f.SetDstMAC(mac)
		}
	}
	b.forwarded++
}

// PinRoutes pins the FIB's current generation for the frames that follow,
// implementing RoutePinner. With no FIB configured it reports 0 and Process
// keeps using the static table.
func (b *Basic) PinRoutes() uint64 {
	if b.cfg.FIB == nil {
		return 0
	}
	g := b.cfg.FIB.Snapshot()
	b.pinned = g
	return g.Generation()
}

// Name returns "basic".
func (b *Basic) Name() string { return "basic" }

// Stats returns the engine's forwarded and dropped frame counts.
func (b *Basic) Stats() (forwarded, dropped int64) { return b.forwarded, b.dropped }

var (
	_ Engine      = (*Basic)(nil)
	_ BatchEngine = (*Basic)(nil)
	_ RoutePinner = (*Basic)(nil)
)
