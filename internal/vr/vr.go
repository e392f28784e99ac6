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
	cost := b.cfg.BaseCost +
		time.Duration(float64(len(f.Buf))*b.cfg.PerByteCost) +
		b.cfg.DummyLoad
	fail := func(err error) (time.Duration, error) {
		f.Out = Drop
		b.dropped++
		return cost, err
	}
	if len(f.Buf) < packet.EthHeaderLen {
		return fail(ErrBadFrame)
	}
	if f.EtherType() != packet.EtherTypeIPv4 {
		if b.cfg.ARP != nil && f.EtherType() == packet.EtherTypeARP {
			replied, err := HandleARP(*b.cfg.ARP, f)
			if err != nil {
				return fail(ErrBadFrame)
			}
			if replied {
				b.forwarded++
				return cost, nil
			}
			b.dropped++
			return cost, nil // learned/ignored, not an error
		}
		return fail(ErrNotIPv4)
	}
	ipb := f.Buf[packet.EthHeaderLen:]
	h, _, err := packet.ParseIPv4(ipb)
	if err != nil {
		return fail(ErrBadFrame)
	}
	alive, err := packet.DecTTL(ipb)
	if err != nil {
		return fail(ErrBadFrame)
	}
	if !alive {
		return fail(ErrTTLDead)
	}
	var (
		outIf   int
		nextHop packet.IP
	)
	switch {
	case b.cfg.FIB != nil:
		g := b.pinned
		if g == nil {
			// Never pinned (engine driven outside a StepBatch quantum): fall
			// back to the current generation per frame.
			g = b.cfg.FIB.Snapshot()
		}
		rt, ok := g.Lookup(h.Dst)
		if !ok {
			return fail(ErrNoRoute)
		}
		outIf, nextHop = rt.OutIf, rt.NextHop
	case b.cfg.Routes != nil:
		e, err := b.cfg.Routes.Lookup(h.Dst)
		if err != nil {
			return fail(ErrNoRoute)
		}
		outIf, nextHop = e.OutIf, e.NextHop
	default:
		return fail(ErrNoRoute)
	}
	f.Out = outIf
	if mac, ok := b.cfg.IfMAC[outIf]; ok {
		f.SetSrcMAC(mac)
	}
	if b.cfg.NextHopMAC != nil {
		hop := nextHop
		if hop == 0 {
			hop = h.Dst
		}
		if mac, ok := b.cfg.NextHopMAC(hop); ok {
			f.SetDstMAC(mac)
		}
	}
	b.forwarded++
	return cost, nil
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
	_ RoutePinner = (*Basic)(nil)
)
