// Flowbalance: compare frame-based and flow-based load balancing across the
// VRIs of one VR (Section 3.3), live.
//
// Frame-based schemes dispatch every frame independently, so one TCP flow's
// frames spread over all VRIs; the flow-based wrapper pins each 5-tuple to
// the VRI that served its first frame, trading balance granularity for
// in-order delivery. The example pushes 64 flows through both and prints
// the per-VRI distribution and the per-flow spread.
//
//	go run ./examples/flowbalance
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/vr"
)

const (
	nVRIs   = 4
	nFlows  = 64
	nFrames = 12800
)

func run(label string, mkBalancer func() balance.Balancer) {
	// TX holds every frame of the run: the reader below may be descheduled
	// while the monitor relays, and a shallower channel would tail-drop.
	adapter := netio.NewChanAdapter(nFrames)
	monitor, err := core.New(core.Config{Adapter: adapter, Clock: core.WallClock})
	if err != nil {
		log.Fatal(err)
	}
	routes, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n0.0.0.0/0 if0\n"))
	if err != nil {
		log.Fatal(err)
	}
	v, err := monitor.AddVR(core.VRConfig{
		Name:        "vr1",
		Classify:    func(*packet.Frame) bool { return true },
		Engine:      vr.BasicFactory(vr.BasicConfig{Routes: routes}),
		Balancer:    mkBalancer(),
		InitialVRIs: nVRIs,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt := core.NewRuntime(monitor)
	rt.Start()
	defer rt.Stop()

	go func() {
		for i := 0; i < nFrames; i++ {
			f, err := packet.BuildUDP(packet.UDPBuildOpts{
				Src: packet.IPv4(10, 1, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
				SrcPort: uint16(6000 + i%nFlows), DstPort: 9,
				WireSize: packet.MinWireSize,
			})
			if err != nil {
				log.Fatal(err)
			}
			adapter.RX <- f
		}
	}()

	got := 0
	deadline := time.After(30 * time.Second)
	for got < nFrames {
		select {
		case <-adapter.TX:
			got++
		case <-deadline:
			log.Fatalf("%s: stalled at %d/%d (in_drops=%d, tx_dropped=%d)",
				label, got, nFrames, monitor.Ledger().InDrops, adapter.IOStats().TxDropped)
		}
	}

	fmt.Printf("%-22s per-VRI frames:", label)
	for _, a := range v.VRIs() {
		fmt.Printf(" %6d", a.Processed())
	}
	if fb, ok := v.Balancer().(*balance.FlowBased); ok {
		hits, misses := fb.Stats()
		fmt.Printf("   (tracked flows=%d, table hits=%d misses=%d)", fb.Flows(), hits, misses)
	}
	fmt.Println()
}

func main() {
	fmt.Printf("%d flows, %d frames, %d VRIs\n\n", nFlows, nFrames, nVRIs)
	run("frame-based rr", func() balance.Balancer { return balance.NewRoundRobin() })
	run("frame-based jsq", func() balance.Balancer { return balance.NewJSQ() })
	run("flow-based rr", func() balance.Balancer {
		return balance.NewFlowBased(balance.NewRoundRobin(), time.Minute, core.WallClock)
	})
	run("flow-based jsq", func() balance.Balancer {
		return balance.NewFlowBased(balance.NewJSQ(), time.Minute, core.WallClock)
	})
	fmt.Println("\nframe-based schemes spread each flow across VRIs (risking reordering);")
	fmt.Println("flow-based schemes pin whole flows, so counts follow flow boundaries.")
}
