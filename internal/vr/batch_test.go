package vr

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lvrm/internal/packet"
	"lvrm/internal/rib"
	"lvrm/internal/route/routetest"
)

// kind is what mixedQuantum made a frame to be, and so what Process must make
// of it.
type kind int

const (
	kForward      kind = iota // live IPv4: routed, or dropped for no route
	kTTL0                     // IPv4 arriving with TTL 0
	kTTL1                     // IPv4 arriving with TTL 1
	kBadSum                   // IPv4 whose header no longer matches its checksum
	kRunt                     // shorter than an Ethernet header
	kIPv6                     // a non-IP EtherType
	kARPForUs                 // ARP request for the engine's own address
	kARPForOther              // ARP request for someone else's
	kARPReply                 // ARP reply
	kARPTruncated             // ARP with its body cut short
)

// mixFrame is one frame of mixedQuantum with what it was made to be: ip is
// the destination of an IPv4 frame and the sender of an ARP one.
type mixFrame struct {
	f    *packet.Frame
	kind kind
	ip   packet.IP
}

// hostMACOf is the MAC the hosts of mixedQuantum have and announce in ARP.
func hostMACOf(ip packet.IP) packet.MAC { return packet.MAC{2, 0, 0, 1, byte(ip >> 8), byte(ip)} }

// mixedQuantum builds the seeded frame mix of TestProcessBatchMatchesProcess:
// every way the forwarder can finish a frame, in random order — forwards to
// directly connected hosts, through a next hop and through the default route,
// at several sizes; destinations nothing covers; TTL 0 and 1; a damaged
// header; a runt; a non-IP EtherType; and ARP requests for the engine's own
// address, for a foreign one, and replies — from the very hosts the data
// frames around them are headed for, so that what the cache has learned by
// the time a frame is rewritten shows in its destination MAC.
func mixedQuantum(t *testing.T, seed int64, n int) []mixFrame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	host := func() packet.IP { return packet.IPv4(10, 1, 0, byte(1+rng.Intn(6))) }
	udp := func(dst packet.IP, ttl uint8) *packet.Frame {
		f, err := packet.BuildUDP(packet.UDPBuildOpts{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			Src: packet.IPv4(10, 3, 0, 9), Dst: dst, SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 9,
			TTL: ttl, WireSize: packet.MinWireSize + 64*rng.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		if ttl < 2 { // BuildUDP raises a zero TTL to its default: write it in
			ipb := f.Buf[packet.EthHeaderLen:]
			ipb[8], ipb[10], ipb[11] = ttl, 0, 0
			c := packet.Checksum(ipb[:packet.IPv4HeaderLen])
			ipb[10], ipb[11] = byte(c>>8), byte(c)
		}
		return f
	}
	frames := make([]mixFrame, n)
	for i := range frames {
		var m mixFrame
		switch r := rng.Intn(100); {
		case r < 25:
			m.ip = host() // directly connected: resolved by destination
		case r < 40:
			m.ip = packet.IPv4(10, 2, byte(rng.Intn(4)), 7)
		case r < 50:
			m.ip = packet.IPv4(192, 0, 2, byte(rng.Intn(200))) // default route, or none
		case r < 56:
			m.ip = packet.IPv4(172, 16, 0, 1) // covered by nothing but a default
		case r < 61:
			m.kind, m.ip = kTTL0, host()
			m.f = udp(m.ip, 0)
		case r < 66:
			m.kind, m.ip = kTTL1, host()
			m.f = udp(m.ip, 1)
		case r < 71:
			m.kind, m.ip = kBadSum, host()
			m.f = udp(m.ip, 64)
			m.f.Buf[packet.EthHeaderLen+12] ^= 0x10 // source address no longer matches the checksum
		case r < 75:
			m.kind, m.f = kRunt, &packet.Frame{Buf: make([]byte, rng.Intn(packet.EthHeaderLen)), Out: -1}
		case r < 79:
			m.kind, m.ip = kIPv6, host()
			m.f = udp(m.ip, 64)
			m.f.Buf[12], m.f.Buf[13] = 0x86, 0xdd
		case r < 87: // who-has the gateway, from a host data frames go to
			m.kind, m.ip = kARPForUs, host()
			m.f = packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, SenderMAC: hostMACOf(m.ip), SenderIP: m.ip, TargetIP: gwIP})
		case r < 92:
			m.kind, m.ip = kARPForOther, host()
			m.f = packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, SenderMAC: hostMACOf(m.ip), SenderIP: m.ip, TargetIP: host()})
		case r < 97:
			m.kind, m.ip = kARPReply, host()
			m.f = packet.BuildARP(packet.ARPMessage{Op: packet.ARPReply, SenderMAC: hostMACOf(m.ip), SenderIP: m.ip, TargetMAC: gwMAC, TargetIP: gwIP})
		default:
			m.kind = kARPTruncated
			m.f = packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, TargetIP: gwIP})
			m.f.Buf = m.f.Buf[:packet.EthHeaderLen+4]
		}
		if m.kind == kForward {
			m.f = udp(m.ip, 64)
		}
		m.f.In = 0
		frames[i] = m
	}
	return frames
}

// hop is a route's answer: the output interface and the next hop, 0 for a
// directly connected destination.
type hop struct {
	outIf   int
	nextHop packet.IP
}

// staticHops is testRoutes as the linear-scan oracle holds it.
var staticHops = routetest.Oracle[hop]{
	{IP: packet.IPv4(10, 2, 0, 0), Bits: 16}: {1, 0},
	{IP: packet.IPv4(10, 1, 0, 0), Bits: 16}: {0, 0},
	{IP: 0, Bits: 0}:                         {0, packet.IPv4(10, 1, 0, 254)},
}

// batchCase is one engine configuration of TestProcessBatchMatchesProcess,
// built afresh for each of the two engines compared.
type batchCase struct {
	name string
	// build returns the engine and, for the FIB-backed cases, a function
	// that publishes a route change between two quanta.
	build func(t *testing.T) (b *Basic, arp *ARPTable, publish func())
	// before and after are the routes the engines must answer by before and
	// after publish; nil routes nothing.
	before, after routetest.Oracle[hop]
}

func fibOf(t *testing.T) *rib.RIB {
	t.Helper()
	r := rib.New(rib.Options{})
	for _, ev := range []rib.Event{
		{Prefix: packet.IPv4(10, 1, 0, 0), Bits: 16, OutIf: 0, Src: rib.SrcStatic, Distance: 1},
		{Prefix: packet.IPv4(10, 2, 0, 0), Bits: 16, OutIf: 1, NextHop: packet.IPv4(10, 1, 0, 3), Src: rib.SrcStatic, Distance: 1},
		{Prefix: packet.IPv4(10, 2, 1, 0), Bits: 24, OutIf: 2, Src: rib.SrcStatic, Distance: 1},
	} {
		if err := r.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	r.Publish()
	return r
}

var batchCases = []batchCase{
	{name: "static+arp", before: staticHops, after: staticHops, build: func(t *testing.T) (*Basic, *ARPTable, func()) {
		cfg := arpCfg()
		return NewBasic(BasicConfig{
			Routes: testRoutes(t), ARP: &cfg, NextHopMAC: cfg.Table.Resolver(),
			IfMAC: map[int]packet.MAC{0: gwMAC, 1: {2, 0, 0, 0, 1, 1}}, PerByteCost: 0.25, DummyLoad: time.Microsecond,
		}), cfg.Table, nil
	}},
	{name: "static", before: staticHops, after: staticHops, build: func(t *testing.T) (*Basic, *ARPTable, func()) {
		return NewBasic(BasicConfig{Routes: testRoutes(t), PerByteCost: 1.5}), nil, nil
	}},
	{name: "fib+arp",
		before: routetest.Oracle[hop]{
			{IP: packet.IPv4(10, 1, 0, 0), Bits: 16}: {0, 0},
			{IP: packet.IPv4(10, 2, 0, 0), Bits: 16}: {1, packet.IPv4(10, 1, 0, 3)},
			{IP: packet.IPv4(10, 2, 1, 0), Bits: 24}: {2, 0},
		},
		after: routetest.Oracle[hop]{
			{IP: packet.IPv4(10, 1, 0, 0), Bits: 16}: {0, 0},
			{IP: packet.IPv4(10, 2, 0, 0), Bits: 16}: {1, packet.IPv4(10, 1, 0, 3)},
			{IP: 0, Bits: 0}:                         {3, packet.IPv4(10, 1, 0, 4)},
		},
		build: func(t *testing.T) (*Basic, *ARPTable, func()) {
			cfg := arpCfg()
			r := fibOf(t)
			publish := func() {
				// The /24 goes, a default arrives: answers change for frames
				// the next quantum carries, and only for those.
				for _, ev := range []rib.Event{
					{Withdraw: true, Prefix: packet.IPv4(10, 2, 1, 0), Bits: 24, Src: rib.SrcStatic},
					{Prefix: 0, Bits: 0, OutIf: 3, NextHop: packet.IPv4(10, 1, 0, 4), Src: rib.SrcStatic, Distance: 1},
				} {
					if err := r.Apply(ev); err != nil {
						t.Fatal(err)
					}
				}
				r.Publish()
			}
			// Routes is set too and must lose to the FIB in both paths.
			return NewBasic(BasicConfig{FIB: r.FIB(), Routes: testRoutes(t), ARP: &cfg, NextHopMAC: cfg.Table.Resolver()}), cfg.Table, publish
		}},
	{name: "no-table", build: func(t *testing.T) (*Basic, *ARPTable, func()) {
		return NewBasic(BasicConfig{}), nil, nil
	}},
}

// expect is what Process must make of m, given the bindings learned so far
// (which it updates as the engine's cache must) and the routes in force:
// the output interface, the bytes and the error.
func expect(t *testing.T, b *Basic, m mixFrame, learned map[packet.IP]packet.MAC, routes routetest.Oracle[hop]) (int, []byte, error) {
	t.Helper()
	buf := bytes.Clone(m.f.Buf)
	arp := b.cfg.ARP != nil
	switch m.kind {
	case kRunt, kBadSum:
		return Drop, buf, ErrBadFrame
	case kIPv6:
		return Drop, buf, ErrNotIPv4
	case kARPTruncated:
		if arp {
			return Drop, buf, ErrBadFrame
		}
		return Drop, buf, ErrNotIPv4
	case kARPForUs, kARPForOther, kARPReply:
		if !arp {
			return Drop, buf, ErrNotIPv4
		}
		learned[m.ip] = hostMACOf(m.ip)
		if m.kind != kARPForUs {
			return Drop, buf, nil
		}
		reply := packet.BuildARP(packet.ARPMessage{Op: packet.ARPReply, SenderMAC: gwMAC, SenderIP: gwIP, TargetMAC: hostMACOf(m.ip), TargetIP: m.ip})
		return m.f.In, reply.Buf, nil
	case kTTL0:
		return Drop, buf, ErrTTLDead
	}
	// A live frame, or one arriving with TTL 1: the TTL is decremented
	// before anything else is decided.
	if _, err := packet.DecTTL(buf[packet.EthHeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if m.kind == kTTL1 {
		return Drop, buf, ErrTTLDead
	}
	h, ok := routes.Lookup(m.ip)
	if !ok {
		return Drop, buf, ErrNoRoute
	}
	if mac, ok := b.cfg.IfMAC[h.outIf]; ok {
		copy(buf[6:12], mac[:])
	}
	next := h.nextHop
	if next == 0 {
		next = m.ip
	}
	if mac, ok := learned[next]; ok && b.cfg.NextHopMAC != nil {
		copy(buf[0:6], mac[:])
	}
	return h.outIf, buf, nil
}

// TestProcessBatchMatchesProcess is BatchEngine's contract for the basic
// forwarder: a quantum handed to ProcessBatch leaves every frame — output
// interface, every byte — the engine's counters, the ARP cache and the summed
// cost exactly as per-frame Process calls leave them, and Process leaves
// each frame as what it was made to be demands (expect), for quanta of one,
// sixteen and the whole mix at once, routing by the static table, by a FIB
// generation pinned per quantum with a publication between two quanta, by a
// FIB never pinned, and by no table at all.
func TestProcessBatchMatchesProcess(t *testing.T) {
	for _, c := range batchCases {
		for _, quantum := range []int{1, 16, 120} {
			for _, pin := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/quantum-%d/pin-%v", c.name, quantum, pin), func(t *testing.T) {
					const n = 120
					scalar, scalarARP, scalarPublish := c.build(t)
					batch, batchARP, batchPublish := c.build(t)
					want, got := mixedQuantum(t, 5, n), mixedQuantum(t, 5, n)
					learned := map[packet.IP]packet.MAC{}
					routes := c.before
					var wantCost, gotCost, specCost time.Duration
					for lo := 0; lo < n; lo += quantum {
						hi := min(lo+quantum, n)
						if lo >= n/2 && lo-quantum < n/2 && scalarPublish != nil {
							scalarPublish()
							batchPublish()
							routes = c.after
						}
						if pin {
							if a, b := scalar.PinRoutes(), batch.PinRoutes(); a != b {
								t.Fatalf("pinned generations %d and %d", a, b)
							}
						}
						for i, m := range want[lo:hi] {
							out, buf, werr := expect(t, scalar, m, learned, routes)
							specCost += scalar.cfg.BaseCost + time.Duration(float64(len(m.f.Buf))*scalar.cfg.PerByteCost) + scalar.cfg.DummyLoad
							cost, err := scalar.Process(m.f)
							wantCost += cost
							if m.f.Out != out || !bytes.Equal(m.f.Buf, buf) || !errors.Is(err, werr) {
								t.Errorf("frame %d (kind %d): Process left Out %d, error %v, % x\n  want Out %d, error %v, % x", lo+i, m.kind, m.f.Out, err, m.f.Buf, out, werr, buf)
							}
						}
						frames := make([]*packet.Frame, 0, hi-lo)
						for _, m := range got[lo:hi] {
							frames = append(frames, m.f)
						}
						gotCost += batch.ProcessBatch(frames)
					}
					drops := 0
					for i := range want {
						w, g := want[i].f, got[i].f
						if g.Out != w.Out || !bytes.Equal(g.Buf, w.Buf) {
							t.Errorf("frame %d: ProcessBatch left Out %d, % x\n  Process leaves Out %d, % x", i, g.Out, g.Buf, w.Out, w.Buf)
						}
						if w.Out == Drop {
							drops++
						}
					}
					if gotCost != wantCost || wantCost != specCost {
						t.Errorf("summed cost %v, per-frame Process %v, want %v", gotCost, wantCost, specCost)
					}
					wf, wd := scalar.Stats()
					if gf, gd := batch.Stats(); gf != wf || gd != wd {
						t.Errorf("Stats = (%d, %d), per-frame Process (%d, %d)", gf, gd, wf, wd)
					}
					if int(wd) != drops || int(wf+wd) != n {
						t.Errorf("Stats (%d, %d) against %d dropped of %d frames", wf, wd, drops, n)
					}
					if c.name != "no-table" && (wf < n/4 || wd < n/4) {
						t.Errorf("mix is lopsided: %d forwarded, %d dropped", wf, wd)
					}
					if scalarARP != nil {
						if scalarARP.Len() == 0 || scalarARP.Len() != len(learned) || scalarARP.Len() != batchARP.Len() {
							t.Errorf("ARP caches hold %d and %d bindings, want %d", scalarARP.Len(), batchARP.Len(), len(learned))
						}
					}
					if len(batch.pend)+len(batch.dsts) != 0 {
						t.Errorf("ProcessBatch left %d frames pending", len(batch.pend))
					}
				})
			}
		}
	}
}

// benchQuanta builds the engine and the frames of the two benchmarks below:
// a forwarder routing by a routetest.EdgeFIB generation, and 4096 minimum-
// size frames for random destinations under 10.2.0.0/16, with a pristine
// copy of each IP header to undo the TTL decrement between uses.
func benchQuanta(b *testing.B) (*Basic, []*packet.Frame, [][packet.IPv4HeaderLen]byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	r := rib.New(rib.Options{})
	for _, p := range routetest.EdgeFIB(rng) {
		if err := r.Apply(rib.Event{Prefix: p.IP, Bits: uint8(p.Bits), OutIf: uint16(p.Bits), Src: rib.SrcStatic, Distance: 1}); err != nil {
			b.Fatal(err)
		}
	}
	r.Publish()
	eng := NewBasic(BasicConfig{FIB: r.FIB()})
	eng.PinRoutes()
	frames := make([]*packet.Frame, 4096)
	headers := make([][packet.IPv4HeaderLen]byte, len(frames))
	for i := range frames {
		f, err := packet.BuildUDP(packet.UDPBuildOpts{
			Src: packet.IPv4(10, 1, 0, 5), Dst: routetest.EdgeDst(rng), SrcPort: uint16(i), DstPort: 9, WireSize: packet.MinWireSize,
		})
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
		copy(headers[i][:], f.Buf[packet.EthHeaderLen:])
	}
	return eng, frames, headers
}

// BenchmarkBasicProcessFIB is BenchmarkBasicProcessBatch's partner: the same
// frames through the same table, one Process call each.
func BenchmarkBasicProcessFIB(b *testing.B) {
	eng, frames, headers := benchQuanta(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i & (len(frames) - 1)
		copy(frames[at].Buf[packet.EthHeaderLen:], headers[at][:])
		if _, err := eng.Process(frames[at]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasicProcessBatch hands the engine the frames sixteen to a
// quantum; ns/op is per frame, as in BenchmarkBasicProcessFIB.
func BenchmarkBasicProcessBatch(b *testing.B) {
	eng, frames, headers := benchQuanta(b)
	const quantum = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += quantum {
		at := i & (len(frames) - 1)
		for j := at; j < at+quantum; j++ {
			copy(frames[j].Buf[packet.EthHeaderLen:], headers[j][:])
		}
		eng.ProcessBatch(frames[at : at+quantum])
	}
	if _, dropped := eng.Stats(); dropped != 0 {
		b.Fatalf("%d frames dropped", dropped)
	}
}
