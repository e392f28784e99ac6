package vr

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lvrm/internal/packet"
	"lvrm/internal/rib"
	"lvrm/internal/route/routetest"
)

// mixedQuantum builds the seeded frame mix of TestProcessBatchMatchesProcess:
// every way the forwarder can finish a frame, in random order — forwards to
// directly connected hosts, through a next hop and through the default route,
// at several sizes; destinations nothing covers; TTL 0 and 1; a damaged
// header; a runt; a non-IP EtherType; and ARP requests for the engine's own
// address, for a foreign one, and replies — from the very hosts the data
// frames around them are headed for, so that what the cache has learned by
// the time a frame is rewritten shows in its destination MAC.
func mixedQuantum(t *testing.T, seed int64, n int) []*packet.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	host := func() packet.IP { return packet.IPv4(10, 1, 0, byte(1+rng.Intn(6))) }
	mac := func(ip packet.IP) packet.MAC { return packet.MAC{2, 0, 0, 1, byte(ip >> 8), byte(ip)} }
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
	frames := make([]*packet.Frame, n)
	for i := range frames {
		var f *packet.Frame
		switch r := rng.Intn(100); {
		case r < 25:
			f = udp(host(), 64) // directly connected: resolved by destination
		case r < 40:
			f = udp(packet.IPv4(10, 2, byte(rng.Intn(4)), 7), 64)
		case r < 50:
			f = udp(packet.IPv4(192, 0, 2, byte(rng.Intn(200))), 64) // default route, or none
		case r < 56:
			f = udp(packet.IPv4(172, 16, 0, 1), 64) // covered by nothing but a default
		case r < 61:
			f = udp(host(), 0)
		case r < 66:
			f = udp(host(), 1)
		case r < 71:
			f = udp(host(), 64)
			f.Buf[packet.EthHeaderLen+12] ^= 0x10 // source address no longer matches the checksum
		case r < 75:
			f = &packet.Frame{Buf: make([]byte, rng.Intn(packet.EthHeaderLen)), Out: -1}
		case r < 79:
			f = udp(host(), 64)
			f.Buf[12], f.Buf[13] = 0x86, 0xdd // IPv6 EtherType
		case r < 87: // who-has the gateway, from a host data frames go to
			h := host()
			f = packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, SenderMAC: mac(h), SenderIP: h, TargetIP: gwIP})
		case r < 92:
			h := host()
			f = packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, SenderMAC: mac(h), SenderIP: h, TargetIP: host()})
		case r < 97:
			h := host()
			f = packet.BuildARP(packet.ARPMessage{Op: packet.ARPReply, SenderMAC: mac(h), SenderIP: h, TargetMAC: gwMAC, TargetIP: gwIP})
		default:
			f = packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, TargetIP: gwIP})
			f.Buf = f.Buf[:packet.EthHeaderLen+4] // truncated ARP body
		}
		f.In = 0
		frames[i] = f
	}
	return frames
}

// batchCase is one engine configuration of TestProcessBatchMatchesProcess,
// built afresh for each of the two engines compared.
type batchCase struct {
	name string
	// build returns the engine and, for the FIB-backed cases, a function
	// that publishes a route change between two quanta.
	build func(t *testing.T) (b *Basic, arp *ARPTable, publish func())
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
	{"static+arp", func(t *testing.T) (*Basic, *ARPTable, func()) {
		cfg := arpCfg()
		return NewBasic(BasicConfig{
			Routes: testRoutes(t), ARP: &cfg, NextHopMAC: cfg.Table.Resolver(),
			IfMAC: map[int]packet.MAC{0: gwMAC, 1: {2, 0, 0, 0, 1, 1}}, PerByteCost: 0.25, DummyLoad: time.Microsecond,
		}), cfg.Table, nil
	}},
	{"static", func(t *testing.T) (*Basic, *ARPTable, func()) {
		return NewBasic(BasicConfig{Routes: testRoutes(t), PerByteCost: 1.5}), nil, nil
	}},
	{"fib+arp", func(t *testing.T) (*Basic, *ARPTable, func()) {
		cfg := arpCfg()
		r := fibOf(t)
		publish := func() {
			// The /24 goes, a default arrives: answers change for frames the
			// next quantum carries, and only for those.
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
	{"no-table", func(t *testing.T) (*Basic, *ARPTable, func()) {
		return NewBasic(BasicConfig{}), nil, nil
	}},
}

// TestProcessBatchMatchesProcess is BatchEngine's contract for the basic
// forwarder: a quantum handed to ProcessBatch leaves every frame — output
// interface, every byte — the engine's counters, the ARP cache and the summed
// cost exactly as per-frame Process calls leave them, for quanta of one,
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
					var wantCost, gotCost time.Duration
					for lo := 0; lo < n; lo += quantum {
						hi := min(lo+quantum, n)
						if lo >= n/2 && lo-quantum < n/2 && scalarPublish != nil {
							scalarPublish()
							batchPublish()
						}
						if pin {
							if a, b := scalar.PinRoutes(), batch.PinRoutes(); a != b {
								t.Fatalf("pinned generations %d and %d", a, b)
							}
						}
						for _, f := range want[lo:hi] {
							cost, err := scalar.Process(f)
							wantCost += cost
							if (err != nil) && f.Out != Drop {
								t.Fatalf("Process returned %v and left Out = %d", err, f.Out)
							}
						}
						gotCost += batch.ProcessBatch(got[lo:hi])
					}
					drops := 0
					for i := range want {
						if got[i].Out != want[i].Out || !bytes.Equal(got[i].Buf, want[i].Buf) {
							t.Errorf("frame %d: ProcessBatch left Out %d, % x\n  Process leaves Out %d, % x", i, got[i].Out, got[i].Buf, want[i].Out, want[i].Buf)
						}
						if want[i].Out == Drop {
							drops++
						}
					}
					if gotCost != wantCost {
						t.Errorf("summed cost %v, per-frame Process %v", gotCost, wantCost)
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
						if scalarARP.Len() == 0 || scalarARP.Len() != batchARP.Len() {
							t.Errorf("ARP caches hold %d and %d bindings", scalarARP.Len(), batchARP.Len())
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
