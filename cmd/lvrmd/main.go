// Command lvrmd runs LVRM live: the monitor and every VRI execute as real
// concurrent workers connected by the lock-free IPC queues (the user-space
// deployment of Chapter 2), with a built-in traffic generator standing in
// for the NIC. It prints per-second statistics: frame rates, per-VR core
// counts, and allocation events.
//
// Usage:
//
//	lvrmd [-vrs 2] [-rate 50000] [-duration 10s] [-balancer jsq]
//	      [-policy dynamic-fixed:20000] [-burn] [-vr-load 16us] [-batch 16]
//	      [-http :8080] [-udp :9000] [-udp-allow 10.0.0.0/8]
//	      [-flow-shards 8] [-flow-table 1024] [-flow-admit 256] [-max-replicas 4]
//	      [-live-migrate 250ms] [-pool-poison] [-drain-timeout 5s]
//	      [-rib] [-rib-replay churn.rt] [-rib-udp :9100]
//
// With -rib, every VR's engine resolves routes through a shared dynamic FIB
// published by the streaming RIB (internal/rib) instead of private static
// tables: the static map-file routes become the RIB's seed (admin distance
// 0), and route events arrive from a trace replay (-rib-replay, a file from
// trafficgen -route-churn) and/or a UDP feed of binary events (-rib-udp).
// Updates batch into new FIB generations, flushed every 5 ms; each VRI
// pins one generation per scheduling quantum, so forwarding never blocks on
// convergence. The /metrics endpoint then exports the lvrm_rib_*/lvrm_fib_*
// series (see OBSERVABILITY.md).
//
// Shutdown (SIGINT, SIGTERM, or -duration elapsing) is a graceful drain: the
// generator stops, the monitor switches to relay-only mode, and lvrmd waits
// up to -drain-timeout for every in-flight frame to settle before printing a
// frame-conservation report. Exit code 0 means a clean drain (every frame
// accounted); 3 means the deadline passed with frames still inside the VRIs,
// which the report counts.
//
// With -http, lvrmd serves the operator endpoints (see OBSERVABILITY.md):
//
//	/status       monitor snapshot as JSON (core.Status)
//	/metrics      Prometheus text exposition
//	/trace        recent allocation/balancer/lifecycle events as JSON
//	/debug/vars   expvar (the same registry under the "lvrm" key)
//	/debug/pprof  the standard net/http/pprof profiles
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
	"lvrm/internal/rib"
	"lvrm/internal/route"
	"lvrm/internal/vr"
)

// One value each has ever been in use, so these are not flags.
const (
	// traceCap is the event tracer's ring capacity (allocation, lifecycle and
	// sampled balancer events).
	traceCap = 1024
	// ribFlush bounds how long a partial batch of RIB changes can sit
	// unpublished.
	ribFlush = 5 * time.Millisecond
)

func main() { os.Exit(run()) }

// run is main's body; returning an exit code (instead of calling os.Exit)
// lets the adapter and runtime defers fire on every path. Codes: 0 clean
// shutdown, 1 startup failure, 2 bad flags, 3 forced (dirty) shutdown.
func run() int {
	var (
		nVRs      = flag.Int("vrs", 2, "number of hosted virtual routers")
		rate      = flag.Float64("rate", 50000, "aggregate generated frame rate (fps)")
		duration  = flag.Duration("duration", 10*time.Second, "how long to run (0 = until interrupt)")
		balName   = flag.String("balancer", "jsq", "load balancer: jsq, rr, random; picks a VRI per frame, or with -flow-shards per new flow (left out there, the least-loaded VRI takes each new flow)")
		polName   = flag.String("policy", "dynamic-fixed:20000", "core allocation policy: fixed:<n>, dynamic-fixed:<fps>, dynamic-service")
		burn      = flag.Bool("burn", false, "busy-spin each frame's simulated cost (real CPU load)")
		vrLoad    = flag.Duration("vr-load", 0, "artificial extra per-frame load added to every VR's engine (the paper's dummy load; 16us ~= one 60 Kfps VRI). With -burn it is spun for real, capping each VRI's service rate — the way to overload a VR and watch -max-replicas split it live")
		httpAddr  = flag.String("http", "", "serve /status, /metrics, /trace, /debug/vars and /debug/pprof at this address (e.g. :8080)")
		udpAddr   = flag.String("udp", "", "receive frames as UDP datagrams on this address instead of the built-in generator")
		batch     = flag.Int("batch", 16, "frames moved per queue operation on the receive, VRI and relay paths (1 = per-frame)")
		flowSh    = flag.Int("flow-shards", 0, "> 0 turns on flow-affinity dispatch: each VR pins every flow in a monitor-owned flow table to the VRI picked for its first frame, by -balancer when given and the least-loaded VRI otherwise (0 = -balancer picks per frame)")
		flowCap   = flag.Int("flow-table", 1024, "pinned-flow capacity per VR, in table slots; rounded up to a power of two of at least one probe window, so the effective capacity (logged at startup) can exceed this")
		flowAdmit = flag.Int("flow-admit", 0, "load-aware admission depth: > 0 with -flow-shards sheds new flows (counted drop) when every VRI's input queue is at least this deep; established flows are never shed (0 = admit everything)")
		maxRepl   = flag.Int("max-replicas", 0, "intra-VR replication ceiling: > 1 with -flow-shards lets each VR run up to this many flow-partitioned replica VRIs, split and folded elastically by queue depth (0/1 = one VRI per core-allocation policy)")
		liveMig   = flag.Duration("live-migrate", 0, "> 0: every interval, live-migrate the VRI with the deepest backlog to a fresh core through the migration engine (pause bounded by one scheduling quantum; pairs naturally with -flow-shards so the flow partition follows)")
		poison    = flag.Bool("pool-poison", false, "fill released pool buffers with a sentinel and panic on use-after-release (debugging; costs a memset per frame)")
		udpAllow  = flag.String("udp-allow", "", "comma-separated source CIDRs/addresses the UDP adapter accepts (empty = accept all)")
		drainTO   = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown bound: how long to wait for in-flight frames to drain before force-releasing the residue and exiting 3")
		useRIB    = flag.Bool("rib", false, "route through a shared RIB-published FIB (epoch-swapped generations) instead of per-VRI static tables")
		ribReplay = flag.String("rib-replay", "", "with -rib: replay this route-churn trace file (trafficgen -route-churn) into the RIB on its recorded schedule")
		ribUDP    = flag.String("rib-udp", "", "with -rib: accept binary route events as UDP datagrams on this address")
	)
	flag.Parse()

	if (*ribReplay != "" || *ribUDP != "") && !*useRIB {
		fmt.Fprintln(os.Stderr, "-rib-replay and -rib-udp require -rib")
		return 2
	}

	// Every frame lvrmd creates comes from the size-classed pool: zero
	// allocations per frame at steady state.
	framePool := pool.NewWithOptions(pool.Options{Poison: *poison})

	// The socket adapter: the in-process channel backend with the built-in
	// generator by default, or a UDP socket fed by an external generator
	// (datagram payload = raw Ethernet frame).
	var sock netio.Adapter
	var chanAdapter *netio.ChanAdapter
	if *udpAddr != "" {
		allow, err := netio.ParseAllowList(*udpAllow)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ua, err := netio.NewUDPAdapterConfig(netio.UDPConfig{
			Listen: *udpAddr, Depth: 8192, Pool: framePool, Allow: allow,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer ua.Close()
		fmt.Printf("receiving frames on udp://%s\n", ua.LocalAddr())
		sock = ua
	} else {
		chanAdapter = netio.NewChanAdapter(8192)
		sock = chanAdapter
	}
	// The static routes: every VR's table, or — with -rib — the RIB's seed.
	routes, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n0.0.0.0/0 if0\n"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var ribTable *rib.RIB
	if *useRIB {
		ribTable = rib.New(rib.Options{MaxBatch: 64})
		if err := ribTable.ApplyAll(rib.EventsFromTable(routes, rib.SrcStatic, 0)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		ribTable.Publish()
	}

	registry := obs.NewRegistry()
	tracer := obs.NewTracer(traceCap)
	obs.RegisterGoRuntime(registry)
	lvrm, err := core.New(core.Config{
		RIB:            ribTable,
		Adapter:        sock,
		Clock:          core.WallClock,
		AllocPeriod:    time.Second,
		Obs:            registry,
		Trace:          tracer,
		FramePool:      framePool,
		RecvBatch:      *batch,
		VRIBatch:       *batch,
		RelayBatch:     *batch,
		FlowShards:     *flowSh,
		FlowTableCap:   *flowCap,
		FlowAdmitDepth: *flowAdmit,
		MaxReplicas:    *maxRepl,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rt := core.NewRuntime(lvrm)
	rt.BurnCost = *burn

	engineCfg := vr.BasicConfig{Routes: routes}
	if ribTable != nil {
		engineCfg = vr.BasicConfig{FIB: ribTable.FIB()}
	}
	engineCfg.DummyLoad = *vrLoad
	// Under flow dispatch a VR without a balancer pins each new flow to the
	// least-loaded VRI; -balancer given on the command line replaces that.
	withBal := *flowSh == 0
	flag.Visit(func(f *flag.Flag) { withBal = withBal || f.Name == "balancer" })
	for i := 0; i < *nVRs; i++ {
		prefix := packet.IPv4(10, 1, byte(i), 0)
		var bal balance.Balancer
		if withBal {
			if bal, err = balance.NewByName(*balName, uint64(i+1)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		pol, err := alloc.NewByName(*polName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		_, err = lvrm.AddVR(core.VRConfig{
			Name:      fmt.Sprintf("vr%d", i+1),
			SrcPrefix: prefix,
			SrcBits:   24,
			Engine:    vr.BasicFactory(engineCfg),
			Balancer:  bal,
			Policy:    pol,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	// Surface the flow table's effective capacity: NewTable rounds it up to a
	// power of two (at least one probe window), so the table an operator gets
	// can be bigger than -flow-table.
	if *flowSh > 0 {
		if vrs := lvrm.VRs(); len(vrs) > 0 {
			if tbl := vrs[0].FlowTable(); tbl != nil {
				fmt.Printf("flow table (per VR): one slab of 8-byte pins, effective_cap=%d (requested %d) admit_depth=%d\n",
					tbl.Cap(), *flowCap, *flowAdmit)
			}
		}
	}
	rt.Start()
	defer rt.Stop()

	// RIB feeds: the trace replay and/or UDP event stream stream updates
	// into the RIB while traffic flows; the flush ticker bounds how long a
	// partial batch can sit unpublished (MaxBatch publishes full ones).
	ribStop := make(chan struct{})
	var ribFeed *rib.UDPFeed
	if ribTable != nil {
		go func() {
			t := time.NewTicker(ribFlush)
			defer t.Stop()
			for {
				select {
				case <-ribStop:
					return
				case <-t.C:
					ribTable.Publish()
				}
			}
		}()
		if *ribReplay != "" {
			evs, err := rib.LoadTraceFile(*ribReplay)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("rib: replaying %d route events from %s\n", len(evs), *ribReplay)
			go rib.Replay(ribTable, evs, ribStop)
		}
		if *ribUDP != "" {
			ribFeed, err = rib.ListenUDP(*ribUDP, ribTable)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer ribFeed.Close()
			fmt.Printf("rib: receiving route events on udp://%s\n", ribFeed.Addr())
		}
	}

	// Forced live migration: every -live-migrate interval, relocate the VRI
	// with the deepest inbound backlog onto the best free core. The request
	// goes through Runtime.MoveVRI, so the running monitor executes it
	// between polls; a failed move (no free core, the instance drained in
	// the meantime) is reported and skipped, never fatal.
	migStop := make(chan struct{})
	if *liveMig > 0 {
		go func() {
			t := time.NewTicker(*liveMig)
			defer t.Stop()
			for {
				select {
				case <-migStop:
					return
				case <-t.C:
				}
				var hotVR *core.VR
				var hot *core.VRIAdapter
				for _, v := range lvrm.VRs() {
					for _, a := range v.VRIs() {
						if hot == nil || a.PendingData() > hot.PendingData() {
							hotVR, hot = v, a
						}
					}
				}
				if hot == nil {
					continue
				}
				rep, err := rt.MoveVRI(hotVR.ID, hot.ID, -1)
				if err != nil {
					fmt.Fprintf(os.Stderr, "live-migrate: %v\n", err)
					continue
				}
				fmt.Printf("live-migrate: %s vri=%d moved=%d pins=%d pause=%v\n",
					hotVR.Name(), rep.SrcVRI, rep.Moved, rep.Pins, rep.Pause)
			}
		}()
	}

	if *httpAddr != "" {
		// GET /status returns the monitor snapshot (core.Status).
		http.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
			js, err := lvrm.StatusJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(js)
		})
		// GET /metrics is the Prometheus text exposition of the registry;
		// GET /trace dumps the event ring. expvar's /debug/vars and pprof's
		// /debug/pprof come with the DefaultServeMux imports; PublishExpvar
		// mirrors the registry under the "lvrm" expvar key.
		http.Handle("/metrics", obs.Handler(registry))
		http.Handle("/trace", obs.TraceHandler(tracer))
		obs.PublishExpvar("lvrm", registry)
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "http: %v\n", err)
			}
		}()
		fmt.Printf("endpoints: http://%s/status /metrics /trace /debug/vars /debug/pprof\n", *httpAddr)
	}

	// Traffic generator: round-robin over the VRs' subnets. OS timers
	// cannot tick at per-frame granularity for high rates, so frames are
	// emitted in per-millisecond batches that track the requested rate.
	// With -udp, the external sender replaces it.
	genStop := make(chan struct{})
	go func() {
		if chanAdapter == nil {
			return
		}
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		seq := 0
		start := time.Now()
		emitted := 0.0
		for {
			select {
			case <-genStop:
				return
			case now := <-ticker.C:
				due := now.Sub(start).Seconds() * *rate
				for ; emitted < due; emitted++ {
					vrIdx := seq % *nVRs
					opts := packet.UDPBuildOpts{
						Src:     packet.IPv4(10, 1, byte(vrIdx), byte(1+seq%250)),
						Dst:     packet.IPv4(10, 2, 0, byte(1+seq%250)),
						SrcPort: uint16(5000 + seq%64), DstPort: 9,
						WireSize: packet.MinWireSize,
					}
					if f, err := framePool.BuildUDP(opts); err == nil {
						select {
						case chanAdapter.RX <- f:
						default: // generator outran the monitor: drop
							f.Release()
						}
					}
					seq++
				}
			}
		}
	}()

	// Drain forwarded frames (the "output NIC"), recycling each buffer back
	// to the pool; the UDP adapter sends them back to its peer itself. The
	// stop/done pair lets shutdown join this goroutine and take ownership of
	// whatever is left on TX.
	txStop := make(chan struct{})
	txDone := make(chan struct{})
	if chanAdapter != nil {
		go func() {
			defer close(txDone)
			for {
				select {
				case f := <-chanAdapter.TX:
					f.Release()
				case <-txStop:
					return
				}
			}
		}()
	} else {
		close(txDone)
	}

	// shutdown is the one exit path: stop the generator, drain the pipeline
	// within the deadline, settle the adapter channels, and print the
	// frame-conservation report. Returns the process exit code.
	shutdown := func() int {
		close(genStop)
		close(ribStop)
		close(migStop)
		start := time.Now()
		clean := rt.StopWithin(*drainTO)
		drainTook := time.Since(start)

		// Every goroutine of the runtime is joined; join the TX drainer too,
		// then this goroutine owns all queues and channels.
		close(txStop)
		<-txDone
		var rxResidue, txResidue int64
		if chanAdapter != nil {
			for {
				select {
				case f := <-chanAdapter.RX:
					f.Release()
					rxResidue++
					continue
				case f := <-chanAdapter.TX:
					f.Release()
					txResidue++
					continue
				default:
				}
				break
			}
		}
		// The ledger is the conservation report. On a forced stop the VRIs
		// still hold frames — staged, queued or finished — and they show as
		// its InFlight rather than going missing.
		st := lvrm.Stats()
		led := st.Ledger
		var mig core.MigrationTotals
		for _, v := range lvrm.VRs() {
			m := v.Migrations()
			mig.Drains += m.Drains
			mig.Splits += m.Splits
			mig.Folds += m.Folds
			mig.Moves += m.Moves
			mig.FramesMoved += m.FramesMoved
			mig.PinsFlipped += m.PinsFlipped
		}
		fmt.Printf("shutdown: received=%d sent=%d send_errors=%d unclassified=%d in_drops=%d admit_shed=%d engine_drops=%d out_drops=%d drain_migrated=%d drain_dropped=%d vris_retired=%d\n",
			led.Received, led.Sent, led.SendErrors, led.Unclassified, led.InDrops,
			led.AdmitShed, led.EngineDrops, led.OutDrops, mig.FramesMoved, led.DrainDropped, st.VRIsRetired)
		fmt.Printf("migrations: drains=%d splits=%d folds=%d moves=%d frames_moved=%d pins_flipped=%d\n",
			mig.Drains, mig.Splits, mig.Folds, mig.Moves, mig.FramesMoved, mig.PinsFlipped)
		ps := framePool.Stats()
		fmt.Printf("pool: outstanding=%d recycled=%d\n", ps.Outstanding, ps.Recycles)
		if ribTable != nil {
			rs := ribTable.Stats()
			fmt.Printf("rib: routes=%d generation=%d updates=%d withdrawals=%d rejected=%d publishes=%d changes=%d",
				rs.Routes, rs.Generation, rs.Updates, rs.Withdrawals, rs.Rejected, rs.Publishes, rs.Changes)
			if ribFeed != nil {
				fmt.Printf(" feed_dropped=%d", ribFeed.Dropped())
			}
			fmt.Println()
		}
		if !clean {
			fmt.Fprintf(os.Stderr, "forced shutdown: drain missed the %v deadline; %d frames left undrained in the VRIs\n",
				*drainTO, led.InFlight)
			return 3
		}
		if err := lvrm.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "forced shutdown: %v\n", err)
			return 3
		}
		fmt.Printf("clean shutdown: pipeline drained in %v, every frame accounted\n",
			drainTook.Round(time.Microsecond))
		return 0
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	deadline := make(<-chan time.Time)
	if *duration > 0 {
		deadline = time.After(*duration)
	}

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	var lastSent int64
	fmt.Println("lvrmd: live LVRM started; ctrl-C to stop")
	for {
		select {
		case <-ticker.C:
			st := lvrm.Stats()
			fmt.Printf("rx=%d tx=%d (+%d fps) unclassified=%d vris=%d allocs=%d",
				st.Received, st.Sent, st.Sent-lastSent, st.Unclassified, st.VRIsLive, st.AllocationCount)
			lastSent = st.Sent
			for _, v := range lvrm.VRs() {
				fmt.Printf("  %s: cores=%d rate=%.0ffps", v.Name(), v.Cores(), v.ArrivalRate())
			}
			if ribTable != nil {
				rs := ribTable.Stats()
				fmt.Printf("  rib: routes=%d gen=%d updates=%d", rs.Routes, rs.Generation, rs.Updates+rs.Withdrawals)
			}
			fmt.Println()
		case sig := <-interrupt:
			fmt.Printf("\n%v: draining (bounded by -drain-timeout=%v)\n", sig, *drainTO)
			return shutdown()
		case <-deadline:
			fmt.Println("duration elapsed: draining")
			return shutdown()
		}
	}
}
