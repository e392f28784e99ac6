// Clickrouter: host a Click-style modular router as the VR implementation,
// configured from a script (Section 3.8's "Click VR").
//
// The configuration classifies traffic by transport protocol, counts each
// class, routes by destination prefix, and discards everything else — then
// the example pushes a mixed UDP/TCP/ICMP workload through a live LVRM and
// reads the element counters back out of the graph.
//
//	go run ./examples/clickrouter
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/vr/click"
)

// config is a Click-like script: declarations, then connections. Port
// selectors pick classifier outputs; inline elements need no names.
const config = `
// Protocol-aware forwarding with per-class accounting.
in   :: FromLVRM;
cls  :: Classifier(ip, -);
prot :: IPClassifier(udp, tcp, icmp, -);
udpC :: Counter;
tcpC :: Counter;
icmC :: Counter;
rt   :: LookupIPRoute(10.2.0.0/16 0, 0.0.0.0/0 1);

in -> cls;
cls[0] -> CheckIPHeader -> DecIPTTL -> prot;
cls[1] -> Discard;                       // non-IP
prot[0] -> udpC -> rt;
prot[1] -> tcpC -> rt;
prot[2] -> icmC -> rt;
prot[3] -> Discard;                      // exotic protocols
rt[0] -> ToLVRM(1);
rt[1] -> Discard;                        // no route home
`

func main() {
	adapter := netio.NewChanAdapter(4096)
	monitor, err := core.New(core.Config{Adapter: adapter, Clock: core.WallClock})
	if err != nil {
		log.Fatal(err)
	}
	v, err := monitor.AddVR(core.VRConfig{
		Name:     "click-vr",
		Classify: func(*packet.Frame) bool { return true },
		Engine:   click.Factory(click.EngineConfig{Config: config}),
	})
	if err != nil {
		log.Fatal(err)
	}
	rt := core.NewRuntime(monitor)
	rt.Start()

	// A mixed workload: UDP, TCP and ICMP frames toward 10.2/16, plus a
	// few strays with no route.
	src, dst := packet.IPv4(10, 1, 0, 1), packet.IPv4(10, 2, 0, 1)
	total := 0
	push := func(f *packet.Frame, err error) {
		if err != nil {
			log.Fatal(err)
		}
		adapter.RX <- f
		total++
	}
	for i := 0; i < 600; i++ {
		switch i % 3 {
		case 0:
			push(packet.BuildUDP(packet.UDPBuildOpts{Src: src, Dst: dst, SrcPort: 1, DstPort: 2, WireSize: packet.MinWireSize}))
		case 1:
			push(packet.BuildTCP(packet.TCPBuildOpts{Src: src, Dst: dst, Hdr: packet.TCPHeader{SrcPort: 1, DstPort: 2, Flags: packet.TCPAck}, PayloadLen: 100}))
		case 2:
			push(packet.BuildICMPEcho(packet.ICMPBuildOpts{Src: src, Dst: dst, Echo: packet.ICMPEcho{Type: packet.ICMPEchoRequest, ID: 9, Seq: uint16(i)}, PayloadLen: 56}))
		}
	}
	// And 30 strays to an unrouted destination.
	for i := 0; i < 30; i++ {
		push(packet.BuildUDP(packet.UDPBuildOpts{Src: src, Dst: packet.IPv4(192, 0, 2, 1), SrcPort: 1, DstPort: 2, WireSize: packet.MinWireSize}))
	}

	// Collect the forwarded frames.
	forwarded := 0
	deadline := time.After(30 * time.Second)
	for forwarded < 600 {
		select {
		case <-adapter.TX:
			forwarded++
		case <-deadline:
			log.Fatalf("stalled: %d/%d frames forwarded", forwarded, 600)
		}
	}

	// Read the counters straight out of the element graph — once the runtime
	// has drained and stopped: until then the VRI's consumer is still running
	// the graph, and a Router has one owner at a time.
	if !rt.StopWithin(5 * time.Second) {
		log.Fatal("runtime did not drain")
	}
	router := v.VRIs()[0].Engine.(*click.Engine).Router()
	fmt.Printf("pushed %d frames, forwarded %d\n", total, forwarded)
	for _, name := range []string{"udpC", "tcpC", "icmC"} {
		e, ok := router.Element(name)
		if !ok {
			log.Fatalf("element %s missing", name)
		}
		frames, bytes := e.(*click.Counter).Stats()
		fmt.Printf("  %s: %d frames, %d bytes\n", name, frames, bytes)
	}
	fmt.Printf("element classes available: %v\n", click.Classes())

	// The element graph renders to Graphviz DOT for visualization:
	//   go run ./examples/clickrouter | sed -n '/^digraph/,/^}/p' | dot -Tsvg
	var dot strings.Builder
	if err := router.WriteDot(&dot, "clickrouter"); err != nil {
		log.Fatal(err)
	}
	fmt.Print(dot.String())
}
