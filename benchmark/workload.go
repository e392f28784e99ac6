package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/ipc"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/rib"
	"lvrm/internal/route"
	"lvrm/internal/vr"
	"lvrm/internal/vr/click"
)

type engineKind int

const (
	engineStatic engineKind = iota // Basic engine on a private two-route route.Table
	engineFIB                      // Basic engine on a shared rib.FIB
	engineClick                    // click.StandardForwarder element graph
)

// workload is one traffic mix and the configuration it runs against. Every
// workload runs one VRI per VR, so per-flow order is promised on all of them.
type workload struct {
	name, why    string
	vrs          int   // hosted VRs; all traffic is sourced in the last one's subnet
	flows        int   // distinct 5-tuples, cycled round-robin
	sizes        []int // wire sizes, dealt to flows cyclically
	flowDispatch bool  // FlowShards 8, FlowTableCap 1<<18: dispatchFlow and MPSC in-rings
	engine       engineKind
	churn        bool // 2000 route events/s applied beside the traffic
}

const (
	flowShards   = 8
	flowTableCap = 1 << 18
	batch        = 16   // lvrmd's -batch default
	churnRate    = 2000 // route events per second
	churnPool    = 64   // flapping /24s: 10.2.0.0/24 .. 10.2.63.0/24
	churnEvery   = 5 * time.Millisecond
	staticMap    = "10.2.0.0/16 if1\n0.0.0.0/0 if0\n" // lvrmd's map file
)

var imix = []int{84, 84, 594, 84, 1538, 84, 594, 84, 594, 84, 594, 84} // 7:4:1

var workloads = []*workload{
	{
		name: "bare-min", vrs: 4, flows: 64, sizes: []int{packet.MinWireSize}, engine: engineStatic,
		why: "bare forwarding of 84 B frames through 4 hosted VRs on the locked JSQ path: the monitor's per-frame cost is nearly everything; bypasses flow, rib and click",
	},
	{
		name: "flow-fib", vrs: 1, flows: 100000, sizes: []int{packet.MinWireSize}, flowDispatch: true, engine: engineFIB,
		why: "100k flows through flow-sharded dispatch and a 12.5k-prefix FIB: working set far beyond L2, the work sits in flow.Assign and rib lookup",
	},
	{
		name: "click-imix", vrs: 1, flows: 4096, sizes: imix, engine: engineClick,
		why: "Click element graph on a 7:4:1 size mix: engine-bound with one allocation per frame, uses all three pool size classes; monitor-path changes should not move it",
	},
	{
		name: "fib-churn", vrs: 1, flows: 100000, sizes: []int{packet.MinWireSize}, flowDispatch: true, engine: engineFIB, churn: true,
		why: "flow-fib with 2000 route events/s published beside the traffic: writes next to reads on rib, which flow-fib cannot see",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything generated from the seed. The program under test sees
// only the frames and the route events.
type inputs struct {
	tmpl   []packet.Frame // one template frame per flow
	allow  []uint8        // per flow: bitmask of correct out-interfaces
	dsts   []packet.IP    // per flow: destination address
	routes []rib.Event    // engineFIB: the FIB's contents, in apply order
	churn  []rib.TimedEvent
}

// generate builds the workload's inputs. churnFor is how long the route-event
// trace must last.
func (w *workload) generate(seed int64, churnFor time.Duration) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		tmpl:  make([]packet.Frame, w.flows),
		allow: make([]uint8, w.flows),
		dsts:  make([]packet.IP, w.flows),
	}
	var ref *refLPM
	if w.engine == engineFIB {
		ref = newRefLPM()
		in.routes = generateRoutes(rng, ref)
	}
	total := 0
	for i := 0; i < w.flows; i++ {
		n, err := packet.UDPFrameLen(packet.UDPBuildOpts{WireSize: w.sizes[i%len(w.sizes)]})
		if err != nil {
			return nil, err
		}
		total += n
	}
	backing := make([]byte, total)
	seen := make(map[packet.FiveTuple]struct{}, w.flows)
	srcNet := packet.IPv4(10, 1, byte(w.vrs-1), 0)
	for i := 0; i < w.flows; {
		o := packet.UDPBuildOpts{
			Src:      srcNet + packet.IP(1+rng.Intn(250)),
			Dst:      packet.IPv4(10, 2, byte(rng.Intn(256)), byte(rng.Intn(256))),
			SrcPort:  uint16(1024 + rng.Intn(60000)),
			DstPort:  uint16(1 + rng.Intn(1023)),
			TTL:      sentTTL,
			WireSize: w.sizes[i%len(w.sizes)],
		}
		ft := packet.FiveTuple{Src: o.Src, Dst: o.Dst, SrcPort: o.SrcPort, DstPort: o.DstPort, Proto: packet.ProtoUDP}
		if _, dup := seen[ft]; dup {
			continue
		}
		seen[ft] = struct{}{}
		n, _ := packet.UDPFrameLen(o)
		buf := backing[:n:n]
		backing = backing[n:]
		if err := packet.BuildUDPInto(o, buf); err != nil {
			return nil, err
		}
		in.tmpl[i] = packet.Frame{Buf: buf, Out: -1}
		in.dsts[i] = o.Dst
		out := 1 // 10.2.0.0/16 if1
		if ref != nil {
			out = ref.lookup(o.Dst)
		}
		in.allow[i] = 1 << uint(out)
		if w.churn && uint32(o.Dst)>>8&0xff < churnPool {
			in.allow[i] |= 1 << 2 // a flapping /24 may be up
		}
		i++
	}
	if w.churn {
		in.churn = rib.GenerateChurn(rib.ChurnOpts{
			Seed: uint64(seed), Duration: churnFor, Rate: churnRate, Prefixes: churnPool, OutIf: 2,
		})
	}
	return in, nil
}

// generateRoutes makes the ~12 500-prefix FIB: the two lvrmd routes, 10 000
// random /16../24 outside 10.2/16, and 2 500 more-specifics under 10.2/16
// that stay clear of the flapping 10.2.0.0/18. It records each in ref.
func generateRoutes(rng *rand.Rand, ref *refLPM) []rib.Event {
	var evs []rib.Event
	add := func(p uint32, bits uint8, outIf uint16) {
		p &^= 1<<(32-bits) - 1
		if !ref.insert(p, bits, int(outIf)) {
			return
		}
		evs = append(evs, rib.Event{
			Prefix: packet.IP(p), Bits: bits, OutIf: outIf,
			NextHop: packet.IP(rng.Uint32()), Src: rib.SrcStatic,
		})
	}
	base := uint32(packet.IPv4(10, 2, 0, 0))
	add(0, 0, 0)
	add(base, 16, 1)
	for len(evs) < 2+10000 {
		p := rng.Uint32()
		if p>>16 == base>>16 {
			continue
		}
		add(p, uint8(16+rng.Intn(9)), uint16(3+rng.Intn(4)))
	}
	for len(evs) < 2+10000+2500 {
		p := base | uint32(64+rng.Intn(192))<<8 | uint32(rng.Intn(256))
		add(p, uint8(18+rng.Intn(11)), uint16(1+2*rng.Intn(2)))
	}
	return evs
}

// refLPM is the verifier's own longest-prefix match, a map per prefix, so
// that a wrong answer from the program's tries shows up as a misrouted frame.
type refLPM struct {
	routes map[uint64]int
	bits   [33]bool
}

func newRefLPM() *refLPM { return &refLPM{routes: map[uint64]int{}} }

func (r *refLPM) insert(p uint32, bits uint8, outIf int) bool {
	k := uint64(p)<<8 | uint64(bits)
	if _, dup := r.routes[k]; dup {
		return false
	}
	r.routes[k] = outIf
	r.bits[bits] = true
	return true
}

func (r *refLPM) lookup(dst packet.IP) int {
	for b := 32; b >= 0; b-- {
		if !r.bits[b] {
			continue
		}
		p := uint64(dst) &^ (1<<(32-uint(b)) - 1)
		if out, ok := r.routes[p<<8|uint64(b)]; ok {
			return out
		}
	}
	return 0
}

// decor is what a traced or fault-injecting run wraps around the public
// configuration. The zero value is the plain program, as lvrmd ships it.
type decor struct {
	clock    func() int64
	engine   func(vr.Factory) vr.Factory
	balancer func(balance.Balancer) balance.Balancer
	noObs    bool     // leave Config.Obs and Config.Trace nil
	spans    *spanLog // non-nil on traced runs
}

// instance is one configured program under test with its load adapter.
type instance struct {
	w    *workload
	in   *inputs
	pool *pool.Pool
	load *loadAdapter
	lvrm *core.LVRM
	rt   *core.Runtime // nil for the inline pass
	rib  *rib.RIB      // nil unless engineFIB
}

// build does the program's share of set-up: tables, core.New, AddVRs.
func build(w *workload, in *inputs, d decor, live bool) (*instance, error) {
	p := pool.New()
	inst := &instance{w: w, in: in, pool: p, load: newLoadAdapter(p, in, d.spans)}
	var factory vr.Factory
	switch w.engine {
	case engineStatic:
		routes, err := route.LoadMapFile(strings.NewReader(staticMap))
		if err != nil {
			return nil, err
		}
		factory = vr.BasicFactory(vr.BasicConfig{Routes: routes})
	case engineFIB:
		inst.rib = rib.New(rib.Options{MaxBatch: 64})
		if err := inst.rib.ApplyAll(in.routes); err != nil {
			return nil, err
		}
		inst.rib.Publish()
		factory = vr.BasicFactory(vr.BasicConfig{FIB: inst.rib.FIB()})
	case engineClick:
		factory = click.Factory(click.EngineConfig{Config: click.StandardForwarder("10.2.0.0/16", "10.1.0.0/16")})
	}
	if d.engine != nil {
		factory = d.engine(factory)
	}
	cfg := core.Config{
		RIB: inst.rib, Adapter: inst.load, QueueKind: ipc.LockFree, Clock: core.WallClock,
		AllocPeriod: time.Second, FramePool: p,
		RecvBatch: batch, VRIBatch: batch, RelayBatch: batch,
	}
	if d.clock != nil {
		cfg.Clock = d.clock
	}
	if !d.noObs {
		cfg.Obs = obs.NewRegistry()
		obs.RegisterGoRuntime(cfg.Obs)
		cfg.Trace = obs.NewTracer(1024)
	}
	if w.flowDispatch {
		cfg.FlowShards, cfg.FlowTableCap = flowShards, flowTableCap
	}
	l, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	inst.lvrm = l
	if live {
		inst.rt = core.NewRuntime(l)
	}
	for i := 0; i < w.vrs; i++ {
		bal, err := balance.NewByName("jsq", uint64(i+1))
		if err != nil {
			return nil, err
		}
		if d.balancer != nil {
			bal = d.balancer(bal)
		}
		// A fixed policy: no VRI is spawned or destroyed mid-run.
		if _, err := l.AddVR(core.VRConfig{
			Name: fmt.Sprintf("vr%d", i+1), SrcPrefix: packet.IPv4(10, 1, byte(i), 0), SrcBits: 24,
			Engine: factory, Balancer: bal, Policy: alloc.NewFixed(1),
		}); err != nil {
			return nil, err
		}
	}
	return inst, nil
}
