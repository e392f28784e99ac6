package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"lvrm/internal/balance"
	"lvrm/internal/flow"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
)

// pickLog wraps a balancer and records every index it returns.
type pickLog struct {
	balance.Balancer
	picks []int
}

func (p *pickLog) Pick(ts []balance.Target, f *packet.Frame) int {
	i := p.Balancer.Pick(ts, f)
	p.picks = append(p.picks, i)
	return i
}

// burstMix builds the seeded traffic of TestBurstEquivalence: valid frames
// skewed towards vr1 (so a burst overfills its 4-slot ring), frames the
// custom-Classify VR claims by their first byte (valid IPv4 that a later
// prefix VR would also match, ARP, and runts), and frames nobody claims —
// foreign sources, corrupted checksums, unmarked ARP and runts.
func burstMix(t *testing.T, seed int64, n int) []*packet.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	udp := func(src string) *packet.Frame {
		f, err := packet.BuildUDP(packet.UDPBuildOpts{
			Src: packet.MustParseIP(src) + packet.IP(rng.Intn(200)), Dst: packet.MustParseIP("10.2.0.9"),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 9, WireSize: packet.MinWireSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	arp := func() *packet.Frame {
		return packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, SenderIP: packet.IPv4(10, 1, 0, 1), TargetIP: packet.IPv4(10, 1, 0, 2)})
	}
	frames := make([]*packet.Frame, n)
	for i := range frames {
		var f *packet.Frame
		switch r := rng.Intn(100); {
		case r < 35:
			f = udp("10.1.0.1")
		case r < 55:
			f = udp("10.2.0.1")
		case r < 62:
			f = udp("10.3.0.1")
		case r < 69:
			f = udp("10.4.0.1")
		case r < 75: // claimed by the custom VR ahead of vr4
			f = udp("10.4.0.1")
			f.Buf[0] = 0xcc
		case r < 79:
			f = arp()
			f.Buf[0] = 0xcc
		case r < 82:
			f = &packet.Frame{Buf: []byte{0xcc, 1, 2, 3, 4, 5, 6, 7, 8, 9}, Out: -1}
		case r < 88:
			f = udp("192.0.2.1")
		case r < 94: // bad header checksum, from a hosted subnet
			f = udp("10.1.0.1")
			f.Buf[packet.EthHeaderLen+8] ^= 0x40
		case r < 97:
			f = arp()
		default:
			f = &packet.Frame{Buf: make([]byte, rng.Intn(packet.EthHeaderLen)), Out: -1}
		}
		frames[i] = f
	}
	return frames
}

// burstOutcome is everything TestBurstEquivalence compares between the two
// receive batch sizes.
type burstOutcome struct {
	Stats      Stats
	Dequeued   map[string][]int    // per "vr/vri": frame indices in dequeue order
	Picks      map[string][]int    // per VR: balancer pick sequence
	InDrops    map[string]int64    // per VR
	Dispatched map[string]int64    // per VR
	QueueEst   map[string]float64  // per "vr/vri": final queue-length EWMA
	Owed       map[string][2]int64 // per "vr/vri": handed, settled
	PoolGets   int64               // frames drawn from the pool
	PoolOut    int64               // still outstanding after everything is released
}

// runBurstMix feeds mix through an LVRM with the given RecvBatch, 16 frames
// per round under a clock that only moves between rounds, taking two frames
// off every VRI ring after each round so that rings stay part-full and bursts
// keep running into them.
func runBurstMix(t *testing.T, mix []*packet.Frame, recvBatch int, newBalancer func() balance.Balancer) burstOutcome {
	t.Helper()
	const round = 16
	clock := &fakeClock{}
	p := pool.New()
	ca := netio.NewChanAdapter(round)
	l, err := New(Config{
		Adapter: ca, Clock: clock.fn(), FramePool: p,
		DataQueueCap: 4, RecvBatch: recvBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := map[string]*pickLog{}
	add := func(cfg VRConfig) {
		log := &pickLog{Balancer: newBalancer()}
		logs[cfg.Name], cfg.Balancer = log, log
		if _, err := l.AddVR(cfg); err != nil {
			t.Fatal(err)
		}
	}
	add(vrCfg(t, "vr1", "10.1.0.0", 16))
	two := vrCfg(t, "vr2", "10.2.0.0", 16)
	two.InitialVRIs = 2
	add(two)
	custom := vrCfg(t, "custom", "0.0.0.0", 32)
	custom.Classify = func(f *packet.Frame) bool { return len(f.Buf) > 0 && f.Buf[0] == 0xcc }
	add(custom)
	add(vrCfg(t, "vr3", "10.3.0.0", 16))
	add(vrCfg(t, "vr4", "10.4.0.0", 16))

	out := burstOutcome{
		Dequeued: map[string][]int{}, Picks: map[string][]int{}, InDrops: map[string]int64{},
		Dispatched: map[string]int64{}, QueueEst: map[string]float64{}, Owed: map[string][2]int64{},
	}
	take := func(max int) {
		for _, v := range l.VRs() {
			for _, a := range v.VRIs() {
				key := fmt.Sprintf("%s/%d", v.Name(), a.ID)
				for i := 0; max < 0 || i < max; i++ {
					f, ok := a.Data.In.Dequeue()
					if !ok {
						break
					}
					out.Dequeued[key] = append(out.Dequeued[key], f.In)
					f.Release()
				}
			}
		}
	}
	for base := 0; base < len(mix); base += round {
		for i := base; i < base+round && i < len(mix); i++ {
			f := p.Copy(mix[i])
			f.In = i // the frame's identity in the dequeue sequences
			ca.RX <- f
		}
		clock.advance(time.Microsecond)
		if got := l.RecvDispatchBatch(0); got != min(round, len(mix)-base) {
			t.Fatalf("RecvBatch %d: round at %d received %d frames", recvBatch, base, got)
		}
		take(2)
	}
	take(-1)

	out.Stats = l.Stats()
	for _, v := range l.VRs() {
		out.Picks[v.Name()] = logs[v.Name()].picks
		out.InDrops[v.Name()], out.Dispatched[v.Name()] = v.InDrops(), v.Dispatched()
		for _, a := range v.VRIs() {
			key := fmt.Sprintf("%s/%d", v.Name(), a.ID)
			out.QueueEst[key] = a.QueueEst.Estimate()
			out.Owed[key] = [2]int64{a.handed.Load(), a.settled.Load()}
		}
	}
	// Hits and misses depend on when the GC empties the pool; the rest is exact.
	ps := p.Stats()
	out.PoolGets, out.PoolOut = ps.Gets, ps.Outstanding
	return out
}

// TestBurstEquivalence is the burst pipeline's contract: the same seeded mix
// received one frame at a time (RecvBatch 1 — the sequence the DES testbed
// and every committed figure run) and sixteen at a time comes out identical —
// per-VRI dequeue order, counters, drops, every balancer decision, the
// queue-length EWMAs those decisions rest on — for JSQ, round-robin and
// random, across partial EnqueueBatch accepts on 4-slot rings.
func TestBurstEquivalence(t *testing.T) {
	balancers := map[string]func() balance.Balancer{
		"jsq":    func() balance.Balancer { return balance.NewJSQ() },
		"rr":     func() balance.Balancer { return balance.NewRoundRobin() },
		"random": func() balance.Balancer { return balance.NewRandom(42) },
	}
	for name, newBalancer := range balancers {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed-%d", name, seed), func(t *testing.T) {
				mix := burstMix(t, seed, 2000)
				one := runBurstMix(t, mix, 1, newBalancer)
				burst := runBurstMix(t, mix, 16, newBalancer)
				if !reflect.DeepEqual(one, burst) {
					t.Errorf("RecvBatch 1 and 16 diverge:\n  1: %+v\n 16: %+v", one.Stats, burst.Stats)
					for k := range one.Dequeued {
						if !reflect.DeepEqual(one.Dequeued[k], burst.Dequeued[k]) {
							t.Errorf("  %s dequeue order differs (%d vs %d frames)", k, len(one.Dequeued[k]), len(burst.Dequeued[k]))
						}
					}
					for k := range one.Picks {
						if !reflect.DeepEqual(one.Picks[k], burst.Picks[k]) {
							t.Errorf("  %s pick sequence differs", k)
						}
					}
					t.Errorf("  in-drops %v vs %v, dispatched %v vs %v, queue EWMAs %v vs %v",
						one.InDrops, burst.InDrops, one.Dispatched, burst.Dispatched, one.QueueEst, burst.QueueEst)
				}
				// The mix must have exercised what it is there for.
				st := burst.Stats
				if st.Received != int64(len(mix)) || st.Unclassified == 0 {
					t.Errorf("received %d of %d, %d unclassified", st.Received, len(mix), st.Unclassified)
				}
				for _, vr := range []string{"vr1", "vr2", "custom", "vr3", "vr4"} {
					if burst.Dispatched[vr] == 0 {
						t.Errorf("%s was never dispatched to", vr)
					}
				}
				if burst.InDrops["vr1"] == 0 || burst.InDrops["vr2"] == 0 {
					t.Errorf("no partial accepts: in-drops %v", burst.InDrops)
				}
				if len(burst.Dequeued["vr2/0"]) == 0 || len(burst.Dequeued["vr2/1"]) == 0 {
					t.Error("vr2's second VRI never used")
				}
				if burst.PoolOut != 0 {
					t.Errorf("pool outstanding = %d, want 0", burst.PoolOut)
				}
			})
		}
	}
}

// TestBurstArrivalRateInterleaved: two VRs whose frames alternate inside every
// burst are each cut into eight one-frame runs sharing one timestamp; each
// VR's arrival estimate must still be its per-frame rate, not 1/8 of it.
func TestBurstArrivalRateInterleaved(t *testing.T) {
	clock := &fakeClock{}
	ca := netio.NewChanAdapter(16)
	l, err := New(Config{Adapter: ca, Clock: clock.fn(), RecvBatch: 16, AllocPeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16))
	v2, _ := l.AddVR(vrCfg(t, "vr2", "10.2.0.0", 16))
	for round := 0; round < 100; round++ {
		for i := 0; i < 8; i++ {
			ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
			ca.RX <- frameFrom(t, "10.2.0.5", "10.1.0.1")
		}
		clock.advance(160 * time.Microsecond) // 8 frames per VR per 160 µs = 50 kfps each
		l.RecvDispatchBatch(0)
		for _, v := range l.VRs() {
			for _, a := range v.VRIs() {
				for {
					if _, ok := a.Data.In.Dequeue(); !ok {
						break
					}
				}
			}
		}
	}
	for _, v := range []*VR{v1, v2} {
		if got := v.ArrivalRate(); got < 49e3 || got > 51e3 {
			t.Errorf("%s arrival estimate = %.0f fps, want 50000", v.Name(), got)
		}
	}
}

// TestDispatchWordsKeepTheirCacheLine pins the layout the pads in VRIAdapter
// exist for: no word the VRI's own core writes lies within a cache line of
// the words dispatch writes per frame, wherever the allocator puts the struct.
func TestDispatchWordsKeepTheirCacheLine(t *testing.T) {
	var a VRIAdapter
	first, last := unsafe.Offsetof(a.handed), unsafe.Offsetof(a.runRoom)+unsafe.Sizeof(a.runRoom)
	if before := unsafe.Offsetof(a.migIn) + unsafe.Sizeof(a.migIn); first-before < cacheLine {
		t.Errorf("handed starts %d bytes after migIn ends, want >= %d", first-before, cacheLine)
	}
	if after := unsafe.Offsetof(a.loadFn); after-last < cacheLine {
		t.Errorf("loadFn starts %d bytes after runRoom ends, want >= %d", after-last, cacheLine)
	}
	if last-first > cacheLine {
		t.Errorf("dispatch words span %d bytes, want <= %d", last-first, cacheLine)
	}
}

// flowBurstOutcome is everything TestBurstEquivalenceFlow compares between
// receive batch sizes.
type flowBurstOutcome struct {
	Stats      Stats
	Flow       flow.Stats
	Dequeued   map[int][]int // per VRI: frame indices in dequeue order
	InDrops    int64
	AdmitShed  int64
	Dispatched int64
	QueueEst   map[int]float64  // per VRI: final queue-length EWMA, compared bit for bit
	Owed       map[int][2]int64 // per VRI: handed, settled
	PoolOut    int64
}

// flowMix is the seeded traffic of TestBurstEquivalenceFlow: flows[i] is the
// flow of frame i. Most frames belong to flows seen before; a new flow shows
// up every few frames, and every other new flow has its second frame right
// behind the first — inside the same burst unless a burst boundary falls
// between them — so that a burst's vector pass runs ahead of the install its
// own first frame will make.
func flowMix(seed int64, n int) (flows []int) {
	rng := rand.New(rand.NewSource(seed))
	known := 0
	for len(flows) < n {
		if known == 0 || rng.Intn(12) == 0 {
			flows = append(flows, known)
			if known%2 == 0 {
				flows = append(flows, known)
			}
			known++
			continue
		}
		flows = append(flows, rng.Intn(known))
	}
	return flows[:n]
}

// runFlowBurstMix feeds the mix through a flow-dispatch LVRM with the given
// RecvBatch, 64 frames per round under a clock that only moves between
// rounds. The 16-slot rings are drained a little after most rounds and fully
// after every fifth, so runs land on empty rings, on part-full ones and on
// full ones (in-drops), and new flows meet backlogs on both sides of the
// admission depth (sheds). A VRI is spawned after rounds 9 and 19, on drained
// rings: every pin goes stale, and since a dequeued frame is settled here as
// the relay would settle it, the first stale flows of the next round find
// their VRI owing nothing and are released, the later ones are kept.
func runFlowBurstMix(t *testing.T, flows []int, recvBatch int) flowBurstOutcome {
	t.Helper()
	const round = 64
	clock := &fakeClock{}
	p := pool.New()
	ca := netio.NewChanAdapter(round)
	l, err := New(Config{
		Adapter: ca, Clock: clock.fn(), FramePool: p, AllocPeriod: time.Hour,
		FlowShards: 8, FlowTableCap: 4096, FlowAdmitDepth: 14,
		DataQueueCap: 16, RecvBatch: recvBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vrCfg(t, "vr1", "10.1.0.0", 16)
	cfg.InitialVRIs = 2
	v, err := l.AddVR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := flowBurstOutcome{Dequeued: map[int][]int{}, QueueEst: map[int]float64{}, Owed: map[int][2]int64{}}
	take := func(max int) {
		for _, a := range v.VRIs() {
			for i := 0; max < 0 || i < max; i++ {
				f, ok := a.Data.In.Dequeue()
				if !ok {
					break
				}
				out.Dequeued[a.ID] = append(out.Dequeued[a.ID], f.In)
				f.Release()
				a.settled.Add(1)
			}
		}
	}
	protos := map[int]*packet.Frame{}
	for base, r := 0, 0; base < len(flows); base, r = base+round, r+1 {
		for i := base; i < base+round && i < len(flows); i++ {
			if protos[flows[i]] == nil {
				protos[flows[i]] = flowFrame(t, flows[i])
			}
			f := p.Copy(protos[flows[i]])
			f.In = i // the frame's identity in the dequeue sequences
			ca.RX <- f
		}
		clock.advance(time.Microsecond)
		if got := l.RecvDispatchBatch(0); got != min(round, len(flows)-base) {
			t.Fatalf("RecvBatch %d: round %d received %d frames", recvBatch, r, got)
		}
		switch {
		case r%5 == 4:
			take(-1)
		case r%2 == 0:
			take(8)
		}
		if r == 9 || r == 19 {
			if _, err := l.growVR(v, clock.now); err != nil {
				t.Fatal(err)
			}
		}
	}
	take(-1)

	out.Stats = l.Stats()
	out.Flow, _ = v.FlowStats()
	out.InDrops, out.AdmitShed, out.Dispatched = v.InDrops(), v.AdmissionShed(), v.Dispatched()
	for _, a := range v.VRIs() {
		out.QueueEst[a.ID] = a.QueueEst.Estimate()
		out.Owed[a.ID] = [2]int64{a.handed.Load(), a.settled.Load()}
	}
	out.PoolOut = p.Stats().Outstanding
	return out
}

// TestBurstEquivalenceFlow is TestBurstEquivalence for flow dispatch: one
// burst of N is N bursts of one. The same seeded mix received one frame at a
// time, sixteen at a time (one vector pass per burst) and sixty-four at a time
// (four chunks per burst) comes out identical: per-VRI frame order, every
// counter of the VR and of its flow table, handed and settled, and the
// queue-length EWMAs bit for bit.
func TestBurstEquivalenceFlow(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			flows := flowMix(seed, 40*64)
			one := runFlowBurstMix(t, flows, 1)
			for _, recvBatch := range []int{16, 64} {
				burst := runFlowBurstMix(t, flows, recvBatch)
				if reflect.DeepEqual(one, burst) {
					continue
				}
				t.Errorf("RecvBatch 1 and %d diverge:\n  1: %+v %+v\n %2d: %+v %+v", recvBatch, one.Stats, one.Flow, recvBatch, burst.Stats, burst.Flow)
				for id := range one.Dequeued {
					if !reflect.DeepEqual(one.Dequeued[id], burst.Dequeued[id]) {
						t.Errorf("  VRI %d dequeue order differs (%d vs %d frames)", id, len(one.Dequeued[id]), len(burst.Dequeued[id]))
					}
				}
				t.Errorf("  in-drops %d vs %d, shed %d vs %d, dispatched %d vs %d, owed %v vs %v, queue EWMAs %v vs %v",
					one.InDrops, burst.InDrops, one.AdmitShed, burst.AdmitShed, one.Dispatched, burst.Dispatched,
					one.Owed, burst.Owed, one.QueueEst, burst.QueueEst)
			}
			// The mix must have exercised what it is there for.
			if one.InDrops == 0 || one.AdmitShed == 0 {
				t.Errorf("no ring-full run or no admission shed: in-drops %d, shed %d", one.InDrops, one.AdmitShed)
			}
			if fs := one.Flow; fs.Hits == 0 || fs.Misses == 0 || fs.Refreshes == 0 || fs.Rebalances == 0 || fs.Refusals == 0 {
				t.Errorf("an outcome was never taken: %+v", fs)
			}
			if len(one.Dequeued) != 4 {
				t.Errorf("%d VRIs were dispatched to, want 4", len(one.Dequeued))
			}
			if one.Stats.Received != int64(len(flows)) || one.Dispatched+one.InDrops+one.AdmitShed != int64(len(flows)) {
				t.Errorf("frames unaccounted for: %+v, dispatched %d", one.Stats, one.Dispatched)
			}
			if one.PoolOut != 0 {
				t.Errorf("pool outstanding = %d, want 0", one.PoolOut)
			}
		})
	}
}
