package lvrm_test

import (
	"strings"
	"testing"

	"lvrm/internal/balance"
	"lvrm/internal/experiments"
	"lvrm/internal/ipc"
	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/vr"
	"lvrm/internal/vr/click"
)

// benchExperiment wraps one registered experiment as a benchmark: each
// iteration regenerates the corresponding paper figure at quick scale on the
// discrete-event testbed. The interesting output is the experiment's rows
// (run `go test -bench <name> -v` or cmd/lvrmbench to see them); the
// ns/op measures how much simulation work the figure costs.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per table/figure of the paper's Chapter 4 (see DESIGN.md's
// per-experiment index).
func BenchmarkExp1aThroughput(b *testing.B)      { benchExperiment(b, "1a") }
func BenchmarkExp1aCPUUsage(b *testing.B)        { benchExperiment(b, "1a-cpu") }
func BenchmarkExp1bLatency(b *testing.B)         { benchExperiment(b, "1b") }
func BenchmarkExp1cMemThroughput(b *testing.B)   { benchExperiment(b, "1c") }
func BenchmarkExp1dMemLatency(b *testing.B)      { benchExperiment(b, "1d") }
func BenchmarkExp1eControlLatency(b *testing.B)  { benchExperiment(b, "1e") }
func BenchmarkExp2aAffinity(b *testing.B)        { benchExperiment(b, "2a") }
func BenchmarkExp2bFixedCores(b *testing.B)      { benchExperiment(b, "2b") }
func BenchmarkExp2cDynamicAlloc(b *testing.B)    { benchExperiment(b, "2c") }
func BenchmarkExp2cReactionLatency(b *testing.B) { benchExperiment(b, "2c-lat") }
func BenchmarkExp2dTwoVRs(b *testing.B)          { benchExperiment(b, "2d") }
func BenchmarkExp2eDynamicThresholds(b *testing.B) {
	benchExperiment(b, "2e")
}
func BenchmarkExp3aBalanceVRIs(b *testing.B) { benchExperiment(b, "3a") }
func BenchmarkExp3bBalanceVRs(b *testing.B)  { benchExperiment(b, "3b") }
func BenchmarkExp3cAggregate(b *testing.B)   { benchExperiment(b, "3c") }
func BenchmarkExp3cMaxMin(b *testing.B)      { benchExperiment(b, "3c-mm") }
func BenchmarkExp3cJain(b *testing.B)        { benchExperiment(b, "3c-jain") }
func BenchmarkExp4Scalability(b *testing.B)  { benchExperiment(b, "4") }
func BenchmarkExp4MaxMin(b *testing.B)       { benchExperiment(b, "4-mm") }
func BenchmarkExp4Jain(b *testing.B)         { benchExperiment(b, "4-jain") }
func BenchmarkExp4TimeSeries(b *testing.B)   { benchExperiment(b, "4-time") }

// Microbenchmarks of the data-path hot spots the experiments exercise.

// BenchmarkDataPathIPCQueue measures the lock-free SPSC queue against the
// lock-based variant — the Section 3.5 comparison.
func BenchmarkDataPathIPCQueue(b *testing.B) {
	f, _ := packet.BuildUDP(packet.UDPBuildOpts{WireSize: packet.MinWireSize})
	b.Run("lockfree", func(b *testing.B) {
		q := ipc.NewSPSC[*packet.Frame](1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.Enqueue(f)
			q.Dequeue()
		}
	})
	b.Run("locked", func(b *testing.B) {
		q := ipc.NewMutexQueue[*packet.Frame](1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.Enqueue(f)
			q.Dequeue()
		}
	})
}

// BenchmarkDataPathBasicVR measures the C++ VR's forwarding decision.
func BenchmarkDataPathBasicVR(b *testing.B) {
	tbl, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n0.0.0.0/0 if0\n"))
	if err != nil {
		b.Fatal(err)
	}
	eng := vr.NewBasic(vr.BasicConfig{Routes: tbl})
	f, _ := packet.BuildUDP(packet.UDPBuildOpts{
		Src: packet.IPv4(10, 1, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
		TTL: 255, WireSize: packet.MinWireSize,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.Buf[packet.EthHeaderLen+8] < 2 {
			f, _ = packet.BuildUDP(packet.UDPBuildOpts{
				Src: packet.IPv4(10, 1, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
				TTL: 255, WireSize: packet.MinWireSize,
			})
		}
		if _, err := eng.Process(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPathClickVR measures the Click VR's element-graph traversal.
func BenchmarkDataPathClickVR(b *testing.B) {
	eng, err := click.NewEngine(click.EngineConfig{
		Config: click.StandardForwarder("10.2.0.0/16", "10.1.0.0/16"),
	})
	if err != nil {
		b.Fatal(err)
	}
	mk := func() *packet.Frame {
		f, _ := packet.BuildUDP(packet.UDPBuildOpts{
			Src: packet.IPv4(10, 1, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
			TTL: 255, WireSize: packet.MinWireSize,
		})
		return f
	}
	f := mk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.Buf[packet.EthHeaderLen+8] < 2 {
			f = mk()
		}
		eng.Process(f)
	}
}

// BenchmarkDataPathBalancers measures one dispatch decision per scheme with
// six targets (the Experiment 3a configuration).
func BenchmarkDataPathBalancers(b *testing.B) {
	targets := make([]balance.Target, 6)
	for i := range targets {
		i := i
		targets[i] = balance.Target{ID: i, Load: func() float64 { return float64(i) }}
	}
	f, _ := packet.BuildUDP(packet.UDPBuildOpts{
		Src: packet.IPv4(10, 1, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
		SrcPort: 1234, WireSize: packet.MinWireSize,
	})
	for _, scheme := range []string{"jsq", "rr", "random"} {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			bal, err := balance.NewByName(scheme, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bal.Pick(targets, f)
			}
		})
	}
}
