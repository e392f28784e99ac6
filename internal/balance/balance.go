// Package balance implements the load-balancing algorithms of Section 3.3
// (Figure 3.3) that a VRI monitor uses to dispatch frames among the VRIs of
// one VR: join-the-shortest-queue, round-robin, and random, each usable
// frame-based (per-frame decision) or flow-based (all frames of a TCP/UDP
// flow pinned to the VRI chosen for the flow's first frame, via a
// connection-tracking hash table).
package balance

import (
	"fmt"
	"time"

	"lvrm/internal/packet"
)

// Target is one dispatch destination (a VRI) as seen by a balancer: an
// opaque index plus a load estimate supplier.
type Target struct {
	// ID is the VRI's stable identifier within its VR.
	ID int
	// Load returns the VRI's current estimated load (the queue-length
	// estimate from its VRI adapter). Only JSQ consults it.
	Load func() float64
}

// Balancer picks a dispatch target for each frame, per Figure 3.3. Targets
// may change between calls as the core allocator spawns and kills VRIs. LVRM
// calls Pick from its monitor goroutine only, so a balancer may keep
// unsynchronized state, as RoundRobin and Random do.
type Balancer interface {
	// Pick returns the index into targets of the VRI that should process
	// the frame. It is only called with len(targets) >= 1.
	Pick(targets []Target, f *packet.Frame) int
	// Name returns the scheme's label as used in the experiments.
	Name() string
}

// NewByName constructs one of the shipped balancers: "jsq", "rr" or
// "random" (seed feeds the random scheme).
func NewByName(name string, seed uint64) (Balancer, error) {
	switch name {
	case "jsq":
		return NewJSQ(), nil
	case "rr":
		return NewRoundRobin(), nil
	case "random":
		return NewRandom(seed), nil
	default:
		return nil, fmt.Errorf("balance: unknown scheme %q", name)
	}
}

// JSQ is join-the-shortest-queue: the frame goes to the VRI with the lowest
// current load estimate. Ties go to the lowest index, matching the scan in
// Figure 3.3.
type JSQ struct{}

// NewJSQ returns a join-the-shortest-queue balancer.
func NewJSQ() *JSQ { return &JSQ{} }

// Pick returns the target with the smallest load estimate.
func (j *JSQ) Pick(targets []Target, _ *packet.Frame) int {
	best := 0
	bestLoad := targets[0].Load()
	for i := 1; i < len(targets); i++ {
		if l := targets[i].Load(); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// Name returns "jsq".
func (j *JSQ) Name() string { return "jsq" }

// RoundRobin cycles through the VRIs in order.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin balancer.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Pick returns the next target in cyclic order.
func (r *RoundRobin) Pick(targets []Target, _ *packet.Frame) int {
	i := r.next % len(targets)
	r.next = (i + 1) % len(targets)
	return i
}

// Name returns "rr".
func (r *RoundRobin) Name() string { return "rr" }

// Random picks a VRI uniformly at random (splitmix64, deterministic from the
// seed so experiment runs reproduce).
type Random struct {
	state uint64
}

// NewRandom returns a random balancer seeded with seed.
func NewRandom(seed uint64) *Random { return &Random{state: seed} }

// Pick returns a uniformly random target index.
func (r *Random) Pick(targets []Target, _ *packet.Frame) int {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(len(targets)))
}

// Name returns "random".
func (r *Random) Name() string { return "random" }

var (
	_ Balancer = (*JSQ)(nil)
	_ Balancer = (*RoundRobin)(nil)
	_ Balancer = (*Random)(nil)
)

// flowEntry pins a flow to a VRI ID, with the last-seen timestamp used for
// idle eviction — the "current timestamp and add flag" bookkeeping in the
// Balance routine of Figure 3.3.
type flowEntry struct {
	vriID    int
	lastSeen int64
}

// FlowBased wraps an underlying balancer with connection tracking: the first
// frame of each 5-tuple flow is dispatched by the inner scheme and later
// frames follow it to the same VRI, preventing intra-flow reordering. A
// non-IP or unparsable frame falls back to the inner scheme.
type FlowBased struct {
	inner Balancer
	table map[uint64]*flowEntry
	// IdleTimeout evicts flows not seen for this long (checked lazily on
	// hit and via Expire). Zero keeps entries forever.
	IdleTimeout time.Duration
	// Clock supplies the current time in nanoseconds; the testbed wires it
	// to virtual time, the live runtime to the wall clock.
	Clock func() int64

	hits, misses uint64
}

// NewFlowBased wraps inner with a connection-tracking table. clock supplies
// time in nanoseconds (defaults to a constant 0, which disables idle
// eviction semantics).
func NewFlowBased(inner Balancer, idleTimeout time.Duration, clock func() int64) *FlowBased {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	return &FlowBased{
		inner:       inner,
		table:       make(map[uint64]*flowEntry),
		IdleTimeout: idleTimeout,
		Clock:       clock,
	}
}

// Pick implements the flow-based Balance routine of Figure 3.3: look up the
// flow entry, validate the pinned VRI, otherwise delegate to the inner
// scheme and remember the decision.
func (fb *FlowBased) Pick(targets []Target, f *packet.Frame) int {
	ft, ok := packet.FlowOf(f)
	if !ok {
		return fb.inner.Pick(targets, f)
	}
	now := fb.Clock()
	key := ft.Hash()
	if e, found := fb.table[key]; found {
		expired := fb.IdleTimeout > 0 && now-e.lastSeen >= int64(fb.IdleTimeout)
		if !expired {
			// The pinned VRI must still exist (it may have been killed by
			// a core deallocation); otherwise fall through to re-pin.
			for i, tgt := range targets {
				if tgt.ID == e.vriID {
					e.lastSeen = now
					fb.hits++
					return i
				}
			}
		}
		delete(fb.table, key)
	}
	fb.misses++
	i := fb.inner.Pick(targets, f)
	fb.table[key] = &flowEntry{vriID: targets[i].ID, lastSeen: now}
	return i
}

// Name returns "flow-<inner>".
func (fb *FlowBased) Name() string { return "flow-" + fb.inner.Name() }

// Flows returns the number of tracked flows.
func (fb *FlowBased) Flows() int { return len(fb.table) }

// Stats returns the hit/miss counters of the connection-tracking table.
func (fb *FlowBased) Stats() (hits, misses uint64) { return fb.hits, fb.misses }

// Expire removes entries idle for at least IdleTimeout at time now and
// returns the number evicted. The VRI monitor calls this periodically so the
// table does not grow without bound under many short flows.
func (fb *FlowBased) Expire(now int64) int {
	if fb.IdleTimeout <= 0 {
		return 0
	}
	n := 0
	for k, e := range fb.table {
		if now-e.lastSeen >= int64(fb.IdleTimeout) {
			delete(fb.table, k)
			n++
		}
	}
	return n
}

var _ Balancer = (*FlowBased)(nil)
