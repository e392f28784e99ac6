package click

import (
	"fmt"
	"sort"
	"time"

	"lvrm/internal/packet"
	"lvrm/internal/vr"
)

// Router is a wired element graph ready to process frames.
type Router struct {
	elements map[string]Element
	order    []string // declaration order, for stable reporting
	entry    *FromLVRM
	// ctx is the traversal state of the frame in Process, reset per frame. A
	// fresh one per frame would be a heap allocation (it escapes through the
	// Element.Push interface call); one per Router is enough because a Router
	// belongs to one engine, which one consumer drives at a time.
	ctx Context
}

func newRouter() *Router {
	return &Router{elements: make(map[string]Element)}
}

func (r *Router) add(e Element) error {
	name := e.InstanceName()
	if _, dup := r.elements[name]; dup {
		return fmt.Errorf("click: duplicate element name %q", name)
	}
	r.elements[name] = e
	r.order = append(r.order, name)
	if f, ok := e.(*FromLVRM); ok {
		if r.entry != nil {
			return fmt.Errorf("click: multiple FromLVRM elements")
		}
		r.entry = f
	}
	return nil
}

func (r *Router) connect(from Element, outPort int, to Element, inPort int) error {
	type connector interface {
		connect(out int, to Element, inPort int) error
	}
	c, ok := from.(connector)
	if !ok {
		return fmt.Errorf("click: element %s cannot originate connections", from.InstanceName())
	}
	if to.NOutputs() == 0 && inPort != 0 {
		return fmt.Errorf("click: terminal element %s has only input port 0", to.InstanceName())
	}
	return c.connect(outPort, to, inPort)
}

// finalize validates the wired graph: there must be an entry, and every
// element (except CheckIPHeader/DecIPTTL's optional error ports) must have
// all outputs connected.
func (r *Router) finalize() error {
	if r.entry == nil {
		return fmt.Errorf("click: configuration has no FromLVRM element")
	}
	for _, name := range r.order {
		e := r.elements[name]
		b, ok := e.(interface{ unconnected() []int })
		if !ok {
			continue
		}
		for _, port := range b.unconnected() {
			// Error/excess ports (port 1 of the checkers and the meter)
			// may dangle: frames pushed there drop.
			switch e.(type) {
			case *CheckIPHeader, *DecIPTTL, *Meter:
				if port == 1 {
					continue
				}
			}
			return fmt.Errorf("click: output %s[%d] is not connected", name, port)
		}
	}
	return nil
}

// Element returns a named element for inspection (counters, queues).
func (r *Router) Element(name string) (Element, bool) {
	e, ok := r.elements[name]
	return e, ok
}

// Elements returns the element names in declaration order.
func (r *Router) Elements() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// StrayDrops sums drops on unconnected ports across the graph; nonzero
// values indicate a configuration hole.
func (r *Router) StrayDrops() int64 {
	var total int64
	names := make([]string, 0, len(r.elements))
	for n := range r.elements {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if b, ok := r.elements[n].(interface{ base() *Base }); ok {
			total += b.base().StrayDrops
		}
	}
	return total
}

// Process pushes one frame through the graph from the entry element and
// returns the number of element hops it traversed. The frame's Timestamp
// (set by LVRM at receive time) clocks time-aware elements.
func (r *Router) Process(f *packet.Frame) int {
	ctx := &r.ctx
	*ctx = Context{Now: f.Timestamp}
	f.Out = vr.Drop
	ctx.Hops = 1 // the entry element itself
	r.entry.Push(ctx, f, 0)
	return ctx.Hops
}

// EngineConfig configures a Click VR engine.
type EngineConfig struct {
	// Config is the router configuration script.
	Config string
	// PerHopCost is the simulated CPU cost per element traversal; zero
	// selects DefaultPerHopCost. The paper's Click VR is slower than the
	// C++ VR precisely because of this per-element overhead.
	PerHopCost time.Duration
	// PerByteCost adds size-dependent cost in ns/byte.
	PerByteCost float64
	// DummyLoad is the artificial extra per-frame load (Experiments 2b-3b).
	DummyLoad time.Duration
}

// DefaultPerHopCost is calibrated against the paper's Click VR latency: the
// standard ~9-element forwarding path costs ≈ 22 µs per frame, which puts
// the LVRM-only latency in the 25-35 µs band of Figure 4.6 (vs. ≤ 15 µs for
// the C++ VR) and caps a single Click VRI well below the C++ VR's
// throughput, reproducing the gaps of Figures 4.2 and 4.5.
const DefaultPerHopCost = 2500 * time.Nanosecond

// Engine adapts a Router to the vr.Engine interface.
type Engine struct {
	router *Router
	cfg    EngineConfig
}

// NewEngine parses the configuration and returns a ready engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	router, err := Parse(cfg.Config)
	if err != nil {
		return nil, err
	}
	if cfg.PerHopCost == 0 {
		cfg.PerHopCost = DefaultPerHopCost
	}
	return &Engine{router: router, cfg: cfg}, nil
}

// Factory returns a vr.Factory producing independent engines (each VRI gets
// its own element graph, mirroring per-process Click instances).
func Factory(cfg EngineConfig) vr.Factory {
	return func() (vr.Engine, error) { return NewEngine(cfg) }
}

// Process pushes the frame through the element graph; the cost is
// hops * PerHopCost plus the size and dummy components.
func (e *Engine) Process(f *packet.Frame) (time.Duration, error) {
	hops := e.router.Process(f)
	cost := time.Duration(hops)*e.cfg.PerHopCost +
		time.Duration(float64(len(f.Buf))*e.cfg.PerByteCost) +
		e.cfg.DummyLoad
	return cost, nil
}

// Name returns "click".
func (e *Engine) Name() string { return "click" }

// Router exposes the underlying graph for inspection.
func (e *Engine) Router() *Router { return e.router }

var _ vr.Engine = (*Engine)(nil)

// StandardForwarder returns the configuration script used for the paper's
// Click VR: minimal IP forwarding between two interfaces, with the frames
// from the sender subnet (if0) forwarded to the receiver subnet (if1).
func StandardForwarder(receiverPrefix string, senderPrefix string) string {
	return fmt.Sprintf(`
// Minimal Click VR forwarding path (Section 3.8): classify, validate,
// decrement TTL, route between the two testbed interfaces.
in   :: FromLVRM;
cnt  :: Counter;
cls  :: Classifier(ip, -);
chk  :: CheckIPHeader;
ttl  :: DecIPTTL;
rt   :: LookupIPRoute(%s 0, %s 1, 0.0.0.0/0 2);

in -> cnt -> cls;
cls[0] -> chk -> ttl -> rt;
cls[1] -> Discard;
rt[0] -> ToLVRM(1);
rt[1] -> ToLVRM(0);
rt[2] -> Discard;
`, receiverPrefix, senderPrefix)
}
