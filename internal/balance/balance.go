// Package balance implements the load-balancing algorithms of Section 3.3
// (Figure 3.3) that a VRI monitor uses to dispatch frames among the VRIs of
// one VR: join-the-shortest-queue, round-robin, and random. Each is usable
// frame-based (a decision per frame) or flow-based: under flow dispatch the
// monitor's flow-affinity table (internal/flow) pins every frame of a TCP/UDP
// flow to the VRI the balancer picked for the flow's first frame, so a
// balancer never tracks connections itself.
package balance

import (
	"fmt"

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
