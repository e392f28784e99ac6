package testbed

import (
	"testing"
	"time"

	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/sim"
)

// TestControlRelayThroughGateway exercises the Experiment 1e path: a VRI
// emits a control event, the monitor relays it with the modeled cost, and
// the destination VRI consumes it with control priority.
func TestControlRelayThroughGateway(t *testing.T) {
	eng := sim.New()
	var deliveredAt int64
	var delivered *core.ControlEvent
	var gw *LVRMGateway
	topo, err := NewTopology(eng, TopologyConfig{}, func(out func(*packet.Frame, int)) (Gateway, error) {
		var err error
		gw, err = NewLVRMGateway(LVRMGatewayConfig{
			Eng: eng, Mechanism: netio.PFRing, Out: out,
			OnControl: func(ev *core.ControlEvent, at int64) {
				delivered, deliveredAt = ev, at
			},
		})
		if err != nil {
			return nil, err
		}
		_, err = gw.AddVR(basicVRConfigN(t, 2))
		return gw, err
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = topo
	vris := gw.LVRM().VRs()[0].VRIs()
	sentAt := eng.Now()
	ev := &core.ControlEvent{DstVR: 0, DstVRI: vris[1].ID, Payload: make([]byte, 128), SentAt: sentAt}
	if !vris[0].SendControl(ev) {
		t.Fatal("SendControl failed")
	}
	gw.PumpControl()
	eng.Run(time.Millisecond)
	if delivered == nil {
		t.Fatal("control event never delivered")
	}
	latency := time.Duration(deliveredAt - sentAt)
	// No-load relay: ControlRelayCost + copy + the VRI poll delay, well
	// inside the paper's 5-7 µs band.
	if latency < 2*time.Microsecond || latency > 10*time.Microsecond {
		t.Errorf("no-load control latency = %v, want ~5-7 µs", latency)
	}
	if delivered.SrcVRI != vris[0].ID {
		t.Errorf("SrcVRI = %d", delivered.SrcVRI)
	}
}

// basicVRConfigN is basicVRConfig with an initial VRI count.
func basicVRConfigN(t testing.TB, n int) core.VRConfig {
	cfg := basicVRConfig(t)
	cfg.InitialVRIs = n
	return cfg
}

// TestGatewayRxRingOverflow: a burst beyond the capture ring is dropped and
// counted, mirroring a saturated PF_RING.
func TestGatewayRxRingOverflow(t *testing.T) {
	eng := sim.New()
	topo, gw := buildLVRMTopology(t, eng, LVRMGatewayConfig{
		Mechanism: netio.PFRing, Monitor: core.Config{DataQueueCap: 8},
	}, basicVRConfig(t))
	_ = topo
	for i := 0; i < 50; i++ {
		f, _ := packet.BuildUDP(packet.UDPBuildOpts{
			Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9), WireSize: packet.MinWireSize,
		})
		gw.Arrive(f, 0) // direct burst, no link pacing
	}
	if gw.RxDrops() != 50-8 {
		t.Errorf("RxDrops = %d, want 42", gw.RxDrops())
	}
}

// TestGatewayMemoryMechanism: the memory cost model is far cheaper than the
// network mechanisms on the monitor core.
func TestGatewayMemoryMechanism(t *testing.T) {
	run := func(mech netio.Mechanism) time.Duration {
		eng := sim.New()
		var gw *LVRMGateway
		_, err := NewTopology(eng, TopologyConfig{}, func(out func(*packet.Frame, int)) (Gateway, error) {
			var err error
			gw, err = NewLVRMGateway(LVRMGatewayConfig{Eng: eng, Mechanism: mech, Out: out})
			if err != nil {
				return nil, err
			}
			_, err = gw.AddVR(basicVRConfig(t))
			return gw, err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			f, _ := packet.BuildUDP(packet.UDPBuildOpts{
				Src: packet.IPv4(10, 1, 0, 5), Dst: packet.IPv4(10, 2, 0, 9), WireSize: packet.MinWireSize,
			})
			gw.Arrive(f, 0)
		}
		eng.Run(time.Second)
		return gw.MonitorCore().TotalBusy()
	}
	mem, pf := run(netio.Memory), run(netio.PFRing)
	if mem >= pf/3 {
		t.Errorf("memory busy %v not far below pfring %v", mem, pf)
	}
}
