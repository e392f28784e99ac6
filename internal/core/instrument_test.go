package core

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lvrm/internal/alloc"
	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet"
)

// flipPolicy alternates Grow and Shrink every decision, forcing allocation
// events (and their trace records) at every allocation pass.
type flipPolicy struct{ grow bool }

func (p *flipPolicy) Decide(s alloc.Snapshot) alloc.Decision {
	p.grow = !p.grow
	if p.grow && s.FreeCores > 0 {
		return alloc.Grow
	}
	if !p.grow && s.Cores > 1 {
		return alloc.Shrink
	}
	return alloc.Hold
}

func (p *flipPolicy) Name() string { return "flip" }

// growOnlyPolicy grows until the machine is full and never shrinks, so no
// frames are lost to destroyed VRI queues mid-test.
type growOnlyPolicy struct{}

func (growOnlyPolicy) Decide(s alloc.Snapshot) alloc.Decision {
	if s.FreeCores > 0 {
		return alloc.Grow
	}
	return alloc.Hold
}

func (growOnlyPolicy) Name() string { return "grow-only" }

// startObservedLVRM is startLiveLVRM plus an observability registry, tracer,
// and an aggressive allocation period so lifecycle events happen quickly.
func startObservedLVRM(t *testing.T, pol alloc.Policy) (*Runtime, *netio.ChanAdapter, *obs.Registry, *obs.Tracer) {
	t.Helper()
	ca := netio.NewChanAdapter(4096)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(256)
	l, err := New(Config{
		Adapter:     ca,
		Clock:       WallClock,
		AllocPeriod: time.Millisecond,
		Obs:         reg,
		Trace:       tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(l)
	if _, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(t), InitialVRIs: 1, Policy: pol,
	}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt, ca, reg, tr
}

// TestStatusRaceFree hammers Status/Stats/AllocEvents from scraper goroutines
// while the runtime dispatches traffic and the allocation pass grows and
// shrinks the VRI set. Run under -race it proves the snapshot paths are safe
// against the monitor's copy-on-write mutations.
func TestStatusRaceFree(t *testing.T) {
	// The flip policy grows and shrinks constantly, exercising the
	// copy-on-write VRI list against the scrapers. Shrinks can drop queued
	// frames, so the test waits on frames *received*, not forwarded.
	rt, ca, _, _ := startObservedLVRM(t, &flipPolicy{})
	l := rt.LVRM()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := l.Status()
				if st.Stats.Received < 0 {
					t.Error("negative received count")
					return
				}
				_ = l.Stats()
				_ = l.AllocEvents()
				for _, v := range l.VRs() {
					_ = v.Cores()
					_ = v.ServiceRatePerVRI()
				}
			}
		}()
	}

	// Drain forwarded frames so the adapter's TX side never blocks.
	go func() {
		for {
			select {
			case <-ca.TX:
			case <-done:
				return
			}
		}
	}()

	const n = 5000
	go func() {
		for i := 0; i < n; i++ {
			ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
		}
	}()
	deadline := time.After(10 * time.Second)
	for l.Stats().Received < n {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d frames received before deadline", l.Stats().Received, n)
		case <-time.After(time.Millisecond):
		}
	}
	close(done)
	wg.Wait()
}

// TestRuntimeScrape runs live traffic and then scrapes /metrics and the
// tracer, checking the whole chain end to end: hot-path instruments fire,
// collectors see the live VR/VRI state, exposition renders, the trace ring
// holds lifecycle events, and Status carries the histogram summaries.
func TestRuntimeScrape(t *testing.T) {
	rt, ca, reg, tr := startObservedLVRM(t, growOnlyPolicy{})
	l := rt.LVRM()

	const n = 3000
	go func() {
		for i := 0; i < n; i++ {
			ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
		}
	}()
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		select {
		case <-ca.TX:
			got++
		case <-deadline:
			t.Fatalf("only %d/%d frames forwarded before deadline", got, n)
		}
	}

	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"lvrm_frames_received_total 3000",
		"lvrm_frames_sent_total 3000",
		`lvrm_vr_dispatched_total{vr="vr1"} 3000`,
		`lvrm_dispatch_wait_nanoseconds_count{vr="vr1"}`,
		"lvrm_vri_spawn_total",
		`lvrm_vri_queue_drops_total{vr="vr1",vri="0",queue="data_in"}`,
		"lvrm_adapter_rx_frames_total{adapter=\"chan\"} 3000",
		"lvrm_send_errors_total 0",
		"lvrm_adapter_rx_runts_total{adapter=\"chan\"} 0",
		"lvrm_adapter_rx_oversize_total{adapter=\"chan\"} 0",
		`lvrm_migration_frames_moved_total{vr="vr1"}`,
		`lvrm_migration_pins_flipped_total{vr="vr1"}`,
		`lvrm_vr_inline_vris{vr="vr1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// One name per quantity: the drain_* mirrors of the two series above
	// are retired, and so are lvrm_vr_replicas (lvrm_vr_cores) and
	// lvrm_vri_replica_load (lvrm_vri_data_queue_depth).
	for _, gone := range []string{
		"lvrm_drain_migrated_total", "lvrm_drain_pins_total",
		"lvrm_vr_replicas", "lvrm_vri_replica_load",
	} {
		if strings.Contains(body, gone) {
			t.Errorf("metrics output still exports %q", gone)
		}
	}

	// The hot-path histogram must have seen (nearly) every frame.
	vr1 := l.VRs()[0]
	if c := vr1.waitHist.Count(); c == 0 {
		t.Error("dispatch-wait histogram recorded no samples")
	}
	if hw := vr1.depthHWM.Value(); hw < 1 {
		t.Errorf("queue-depth high water = %d, want >= 1", hw)
	}

	// Status carries the summaries.
	st := l.Status()
	if st.VRs[0].DispatchWait.Count == 0 {
		t.Error("Status.DispatchWait.Count = 0")
	}
	if st.VRs[0].DispatchWait.P99 < st.VRs[0].DispatchWait.P50 {
		t.Errorf("p99 %.0f < p50 %.0f", st.VRs[0].DispatchWait.P99, st.VRs[0].DispatchWait.P50)
	}

	// The flip policy must have produced at least one allocation event, and
	// the tracer must hold the spawn plus the allocation decisions.
	if len(l.AllocEvents()) == 0 {
		t.Fatal("no allocation events despite flip policy")
	}
	if st.AllocReaction.Count == 0 {
		t.Error("Status.AllocReaction.Count = 0")
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.KindSpawn] == 0 {
		t.Errorf("trace has no spawn events: %v", kinds)
	}
	if kinds[obs.KindAlloc] == 0 && kinds[obs.KindDealloc] == 0 {
		t.Errorf("trace has no allocation events: %v", kinds)
	}
}

// TestObsDisabledIsNoop checks the nil-safety contract end to end: an LVRM
// without a registry or tracer must run traffic exactly as before.
func TestObsDisabledIsNoop(t *testing.T) {
	rt, ca := startLiveLVRM(t, 1)
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			ca.RX <- frameFrom(t, "10.1.0.5", "10.2.0.1")
		}
	}()
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		select {
		case <-ca.TX:
			got++
		case <-deadline:
			t.Fatalf("only %d/%d frames forwarded before deadline", got, n)
		}
	}
	st := rt.LVRM().Status()
	if st.VRs[0].DispatchWait.Count != 0 {
		t.Errorf("DispatchWait.Count = %d with observability disabled", st.VRs[0].DispatchWait.Count)
	}
	if st.VRs[0].QueueDepthHighWater != 0 {
		t.Errorf("QueueDepthHighWater = %d with observability disabled", st.VRs[0].QueueDepthHighWater)
	}
}
