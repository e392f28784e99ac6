// Dynroutes: change a virtual router's routing state at run time through
// the control queues (Section 3.7's dynamic-routes extension).
//
// A VR with two VRIs forwards 10.2/16 while a second prefix, 172.16/12, has
// no route. Mid-run the monitor broadcasts a RouteUpdate control event; both
// VRIs apply it to their private tables between data frames (control queues
// have priority), and traffic to the new prefix starts flowing without any
// restart. Then the route is withdrawn again.
//
//	go run ./examples/dynroutes
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/vr"
)

func main() {
	adapter := netio.NewChanAdapter(4096)
	monitor, err := core.New(core.Config{Adapter: adapter, Clock: core.WallClock})
	if err != nil {
		log.Fatal(err)
	}
	routes, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n"))
	if err != nil {
		log.Fatal(err)
	}
	v, err := monitor.AddVR(core.VRConfig{
		Name:        "vr1",
		Classify:    func(*packet.Frame) bool { return true },
		Engine:      vr.BasicFactory(vr.BasicConfig{Routes: routes}),
		InitialVRIs: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt := core.NewRuntime(monitor)
	// The route-sync handler applies RouteUpdate control events; other
	// payloads would fall through to a user protocol handler (nil here).
	rt.ControlHandler = core.RouteSyncHandler(nil)
	rt.Start()
	defer rt.Stop()

	newPrefix := packet.MustParseIP("172.16.0.0")

	// probe sends 200 frames to each destination and reports how many were
	// forwarded vs dropped.
	probe := func(label string) {
		const n = 200
		forwarded := map[string]int{}
		go func() {
			for i := 0; i < n; i++ {
				for _, dst := range []string{"10.2.0.9", "172.16.5.5"} {
					f, _ := packet.BuildUDP(packet.UDPBuildOpts{
						Src: packet.IPv4(10, 1, 0, 1), Dst: packet.MustParseIP(dst),
						SrcPort: uint16(i), DstPort: 9, WireSize: packet.MinWireSize,
					})
					adapter.RX <- f
				}
			}
		}()
		deadline := time.After(5 * time.Second)
		got := 0
	loop:
		for got < 2*n { // dropped frames never reach TX; stop on quiesce
			select {
			case f := <-adapter.TX:
				h, _, err := packet.ParseIPv4(f.Buf[packet.EthHeaderLen:])
				if err == nil {
					if h.Dst&0xffff0000 == packet.MustParseIP("10.2.0.0") {
						forwarded["10.2/16"]++
					} else {
						forwarded["172.16/12"]++
					}
				}
				got++
			case <-time.After(300 * time.Millisecond):
				break loop
			case <-deadline:
				break loop
			}
		}
		fmt.Printf("%-22s forwarded: 10.2/16=%3d  172.16/12=%3d\n",
			label, forwarded["10.2/16"], forwarded["172.16/12"])
	}

	probe("before update:")

	// The runtime's entry, not the monitor's: the monitor goroutine is the
	// only producer onto a VRI's control queue, so the broadcast runs there.
	n, err := rt.BroadcastRouteUpdate(v, vr.RouteUpdate{
		Prefix: newPrefix, Bits: 12, OutIf: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broadcast install 172.16.0.0/12 -> if1 to %d VRIs\n", n)
	time.Sleep(50 * time.Millisecond) // let the control events drain
	probe("after install:")

	if _, err := rt.BroadcastRouteUpdate(v, vr.RouteUpdate{
		Withdraw: true, Prefix: newPrefix, Bits: 12,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("broadcast withdraw 172.16.0.0/12")
	time.Sleep(50 * time.Millisecond)
	probe("after withdraw:")

	st := monitor.Stats()
	fmt.Printf("control events relayed: %d\n", st.ControlRelayed)
}
