// Flowbalance: compare frame-based and flow-based load balancing across the
// VRIs of one VR (Section 3.3), live.
//
// Frame-based schemes dispatch every frame independently, so one flow's
// frames spread over all VRIs. Flow-based balancing puts the monitor's
// flow-affinity table in front of the same scheme (core.Config.FlowShards):
// the scheme picks a VRI for each flow's first frame and every later frame
// follows it, trading balance granularity for in-order delivery. The example
// pushes 64 flows through both and prints the per-VRI distribution and the
// flow table's counters. It exits non-zero unless, under flow dispatch, every
// flow is pinned exactly once and each VRI served whole flows only.
//
//	go run ./examples/flowbalance
package main

import (
	"fmt"
	"os"
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

// run pushes nFrames frames, cycling over nFlows flows, through one VR of
// nVRIs VRIs balanced by bal; flowShards > 0 turns flow dispatch on. The
// runtime is stopped before run returns.
func run(label string, flowShards int, bal balance.Balancer) error {
	flows := make([]*packet.Frame, nFlows)
	for i := range flows {
		f, err := packet.BuildUDP(packet.UDPBuildOpts{
			Src: packet.IPv4(10, 1, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
			SrcPort: uint16(6000 + i), DstPort: 9,
			WireSize: packet.MinWireSize,
		})
		if err != nil {
			return err
		}
		flows[i] = f
	}
	// TX holds every frame of the run: the reader below may be descheduled
	// while the monitor relays, and a shallower channel would tail-drop.
	adapter := netio.NewChanAdapter(nFrames)
	monitor, err := core.New(core.Config{Adapter: adapter, Clock: core.WallClock, FlowShards: flowShards})
	if err != nil {
		return err
	}
	routes, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n0.0.0.0/0 if0\n"))
	if err != nil {
		return err
	}
	v, err := monitor.AddVR(core.VRConfig{
		Name:        "vr1",
		Classify:    func(*packet.Frame) bool { return true },
		Engine:      vr.BasicFactory(vr.BasicConfig{Routes: routes}),
		Balancer:    bal,
		InitialVRIs: nVRIs,
	})
	if err != nil {
		return err
	}
	rt := core.NewRuntime(monitor)
	rt.Start()
	defer rt.Stop()

	// RX holds every frame too, so the sender never blocks and ends on its
	// own even if the run stalls.
	go func() {
		for i := 0; i < nFrames; i++ {
			adapter.RX <- flows[i%nFlows].Clone()
		}
	}()

	got := 0
	deadline := time.After(30 * time.Second)
	for got < nFrames {
		select {
		case <-adapter.TX:
			got++
		case <-deadline:
			return fmt.Errorf("%s: stalled at %d/%d (in_drops=%d, tx_dropped=%d)",
				label, got, nFrames, monitor.Ledger().InDrops, adapter.IOStats().TxDropped)
		}
	}
	// Stopping joins every VRI's consumer, so the counters below are final.
	rt.Stop()

	fmt.Printf("%-22s per-VRI frames:", label)
	for _, a := range v.VRIs() {
		fmt.Printf(" %6d", a.Processed())
	}
	if flowShards == 0 {
		fmt.Println()
		return nil
	}
	st, _ := v.FlowStats()
	fmt.Printf("   (flow table: misses=%d hits=%d unpinned=%d overflows=%d)\n",
		st.Misses, st.Hits, st.Unpinned, st.Overflows)

	partitions := v.FlowTable().PartitionSizes()
	pinned := 0
	for _, n := range partitions {
		pinned += n
	}
	if pinned != nFlows || st.Misses != nFlows || st.Unpinned != 0 || st.Overflows != 0 {
		return fmt.Errorf("%s: %d flows pinned after %d misses (unpinned=%d overflows=%d), want each of %d flows pinned exactly once",
			label, pinned, st.Misses, st.Unpinned, st.Overflows, nFlows)
	}
	for _, a := range v.VRIs() {
		if want := int64(partitions[a.ID] * nFrames / nFlows); a.Processed() != want {
			return fmt.Errorf("%s: VRI %d processed %d frames for its %d flows, want %d: a flow was split across VRIs",
				label, a.ID, a.Processed(), partitions[a.ID], want)
		}
	}
	return nil
}

func main() {
	fmt.Printf("%d flows, %d frames, %d VRIs\n\n", nFlows, nFrames, nVRIs)
	runs := []struct {
		label      string
		flowShards int
		bal        balance.Balancer
	}{
		{"frame-based rr", 0, balance.NewRoundRobin()},
		{"frame-based jsq", 0, balance.NewJSQ()},
		{"flow-based rr", 1, balance.NewRoundRobin()},
		{"flow-based jsq", 1, balance.NewJSQ()},
	}
	for _, r := range runs {
		if err := run(r.label, r.flowShards, r.bal); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Println("\nframe-based schemes spread each flow across VRIs (risking reordering);")
	fmt.Println("flow-based schemes pin whole flows, so counts follow flow boundaries.")
}
