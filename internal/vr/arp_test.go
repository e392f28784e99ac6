package vr

import (
	"bytes"
	"errors"
	"testing"

	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
)

var (
	gwMAC   = packet.MAC{0x02, 0, 0, 0, 0xAA, 1}
	hostMAC = packet.MAC{0x02, 0, 0, 0, 0xBB, 2}
	gwIP    = packet.MustParseIP("10.1.0.254")
	hostIP  = packet.MustParseIP("10.1.0.5")
)

func arpCfg() ARPConfig {
	return ARPConfig{
		Table:  NewARPTable(),
		OwnIP:  map[int]packet.IP{0: gwIP},
		OwnMAC: map[int]packet.MAC{0: gwMAC},
	}
}

func TestARPRoundTripCodec(t *testing.T) {
	req := packet.BuildARP(packet.ARPMessage{
		Op: packet.ARPRequest, SenderMAC: hostMAC, SenderIP: hostIP, TargetIP: gwIP,
	})
	if req.DstMAC() != (packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) {
		t.Errorf("request not broadcast: %v", req.DstMAC())
	}
	m, err := packet.ParseARP(req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != packet.ARPRequest || m.SenderIP != hostIP || m.TargetIP != gwIP || m.SenderMAC != hostMAC {
		t.Errorf("parsed = %+v", m)
	}
	// Replies are unicast.
	rep := packet.BuildARP(packet.ARPMessage{
		Op: packet.ARPReply, SenderMAC: gwMAC, SenderIP: gwIP, TargetMAC: hostMAC, TargetIP: hostIP,
	})
	if rep.DstMAC() != hostMAC {
		t.Errorf("reply dst = %v", rep.DstMAC())
	}
}

func TestParseARPRejects(t *testing.T) {
	udp, _ := packet.BuildUDP(packet.UDPBuildOpts{WireSize: packet.MinWireSize})
	if _, err := packet.ParseARP(udp); !errors.Is(err, packet.ErrNotARP) {
		t.Errorf("UDP frame: %v", err)
	}
	runt := &packet.Frame{Buf: make([]byte, 16)}
	runt.Buf[12], runt.Buf[13] = 0x08, 0x06
	if _, err := packet.ParseARP(runt); !errors.Is(err, packet.ErrNotARP) {
		t.Errorf("runt ARP: %v", err)
	}
	// Non-Ethernet hardware type.
	bad := packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest})
	bad.Buf[packet.EthHeaderLen] = 9
	if _, err := packet.ParseARP(bad); !errors.Is(err, packet.ErrNotARP) {
		t.Errorf("bad hw type: %v", err)
	}
}

func TestHandleARPRequestTurnaround(t *testing.T) {
	cfg := arpCfg()
	req := packet.BuildARP(packet.ARPMessage{
		Op: packet.ARPRequest, SenderMAC: hostMAC, SenderIP: hostIP, TargetIP: gwIP,
	})
	req.In = 0
	replied, err := HandleARP(cfg, req)
	if err != nil || !replied {
		t.Fatalf("HandleARP = (%v,%v)", replied, err)
	}
	if req.Out != 0 {
		t.Errorf("reply Out = %d, want the arrival interface", req.Out)
	}
	m, err := packet.ParseARP(req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != packet.ARPReply || m.SenderIP != gwIP || m.SenderMAC != gwMAC || m.TargetMAC != hostMAC {
		t.Errorf("reply = %+v", m)
	}
	// The sender's binding was learned.
	if mac, ok := cfg.Table.Lookup(hostIP); !ok || mac != hostMAC {
		t.Errorf("Lookup = (%v,%v)", mac, ok)
	}
}

func TestHandleARPForeignTargetLearnsButDrops(t *testing.T) {
	cfg := arpCfg()
	req := packet.BuildARP(packet.ARPMessage{
		Op: packet.ARPRequest, SenderMAC: hostMAC, SenderIP: hostIP,
		TargetIP: packet.MustParseIP("10.1.0.99"),
	})
	req.In = 0
	replied, err := HandleARP(cfg, req)
	if err != nil || replied {
		t.Fatalf("foreign target: (%v,%v)", replied, err)
	}
	if req.Out != Drop {
		t.Errorf("Out = %d", req.Out)
	}
	if cfg.Table.Len() != 1 {
		t.Errorf("binding not learned: %d", cfg.Table.Len())
	}
	// Gratuitous replies are learned too.
	rep := packet.BuildARP(packet.ARPMessage{
		Op: packet.ARPReply, SenderMAC: gwMAC, SenderIP: gwIP, TargetMAC: hostMAC, TargetIP: hostIP,
	})
	if _, err := HandleARP(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if mac, ok := cfg.Table.Lookup(gwIP); !ok || mac != gwMAC {
		t.Error("reply binding not learned")
	}
}

func TestBasicEngineAnswersARP(t *testing.T) {
	cfg := arpCfg()
	b := NewBasic(BasicConfig{
		Routes:     testRoutes(t),
		ARP:        &cfg,
		NextHopMAC: cfg.Table.Resolver(),
	})
	// ARP request for the engine's own address → reply forwarded back.
	req := packet.BuildARP(packet.ARPMessage{
		Op: packet.ARPRequest, SenderMAC: hostMAC, SenderIP: hostIP, TargetIP: gwIP,
	})
	req.In = 0
	if _, err := b.Process(req); err != nil {
		t.Fatal(err)
	}
	if req.Out != 0 {
		t.Errorf("ARP reply Out = %d", req.Out)
	}
	// Data frames now resolve the learned next hop.
	f := frameTo(t, "10.1.0.5") // via if0, directly connected
	if _, err := b.Process(f); err != nil {
		t.Fatal(err)
	}
	if f.DstMAC() != hostMAC {
		t.Errorf("next hop MAC = %v, want the learned %v", f.DstMAC(), hostMAC)
	}
	// Without ARP config, ARP frames are ErrNotIPv4 drops.
	b2 := NewBasic(BasicConfig{Routes: testRoutes(t)})
	req2 := packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, TargetIP: gwIP})
	if _, err := b2.Process(req2); !errors.Is(err, ErrNotIPv4) {
		t.Errorf("ARP without config: %v", err)
	}
}

// TestARPReplyInPlace: an ARP request for the engine's own address, in a
// pooled buffer padded to the Ethernet minimum as a NIC delivers it, is
// answered in that buffer — the frame keeps its capacity, Process allocates
// nothing, and the bytes are BuildARP's reply.
func TestARPReplyInPlace(t *testing.T) {
	cfg := arpCfg()
	b := NewBasic(BasicConfig{Routes: testRoutes(t), ARP: &cfg, NextHopMAC: cfg.Table.Resolver()})
	req := packet.BuildARP(packet.ARPMessage{Op: packet.ARPRequest, SenderMAC: hostMAC, SenderIP: hostIP, TargetIP: gwIP}).Buf
	want := packet.BuildARP(packet.ARPMessage{Op: packet.ARPReply, SenderMAC: gwMAC, SenderIP: gwIP, TargetMAC: hostMAC, TargetIP: hostIP}).Buf
	f := pool.New().Get(60)
	defer f.Release()
	pooled := f.Buf
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		f.Buf = pooled
		clear(f.Buf[copy(f.Buf, req):])
		f.In, f.Out = 0, Drop
		_, err = b.Process(f)
	})
	if err != nil || f.Out != 0 {
		t.Fatalf("Process = %v, Out %d", err, f.Out)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per reply", allocs)
	}
	if cap(f.Buf) != cap(pooled) || &f.Buf[0] != &pooled[0] {
		t.Errorf("reply in a buffer of capacity %d, not the pooled request's (%d)", cap(f.Buf), cap(pooled))
	}
	if !bytes.Equal(f.Buf, want) {
		t.Errorf("reply % x\n  BuildARP % x", f.Buf, want)
	}
}

func TestARPTableConcurrentSafe(t *testing.T) {
	tbl := NewARPTable()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			tbl.Learn(packet.IPv4(10, 0, byte(i>>8), byte(i)), hostMAC)
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		tbl.Lookup(packet.IPv4(10, 0, 0, byte(i)))
	}
	<-done
	if tbl.Len() == 0 {
		t.Error("nothing learned")
	}
}
