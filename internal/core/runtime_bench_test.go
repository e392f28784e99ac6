package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"lvrm/internal/alloc"
	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
)

// benchLiveRuntime measures end-to-end live throughput of a started Runtime
// over a channel adapter, with one VR of vris fixed VRIs: one VRI runs on the
// monitor goroutine, two or more each on a worker goroutine of its own.
func benchLiveRuntime(b *testing.B, cfg Config, vris int) {
	ca := netio.NewChanAdapter(8192)
	cfg.Adapter, cfg.Clock = ca, WallClock
	l, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rt := NewRuntime(l)
	if _, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: testEngineFactory(b), InitialVRIs: vris, Policy: alloc.NewFixed(vris),
	}); err != nil {
		b.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	frames := make([]*packet.Frame, 256)
	for i := range frames {
		frames[i] = frameFrom(b, "10.1.0.5", "10.2.0.1")
	}
	// The monitor's per-VRI queues tail-drop under unbounded flooding (by
	// design), which would strand the consumer; cap the frames in flight
	// well below the queue depth instead.
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		for n := 0; n < b.N; n++ {
			<-ca.TX
			received.Add(1)
		}
		close(done)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-received.Load() > 1024 {
			runtime.Gosched()
		}
		ca.RX <- frames[i%len(frames)].Clone()
	}
	<-done
	b.StopTimer()
}

// BenchmarkLiveRuntimeQueueKinds is the §3.5 lock-free vs lock-based
// comparison on the real data path rather than in isolation. Its VR runs two
// VRIs, so every frame crosses from the monitor to a worker goroutine and
// back through the queue kind under test.
func BenchmarkLiveRuntimeQueueKinds(b *testing.B) {
	for _, kind := range []ipc.Kind{ipc.LockFree, ipc.Locked} {
		b.Run(kind.String(), func(b *testing.B) {
			benchLiveRuntime(b, Config{QueueKind: kind}, 2)
		})
	}
}

// BenchmarkLiveRuntimeBatch measures the same end-to-end path at different
// batch sizes on the receive, VRI and relay stages. Batch 1 is the per-frame
// baseline; larger batches amortize one cursor publication and one adapter
// poll across the run of frames.
func BenchmarkLiveRuntimeBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			benchLiveRuntime(b, Config{RecvBatch: batch, VRIBatch: batch, RelayBatch: batch}, 1)
		})
	}
}

// BenchmarkLiveRuntimeInline measures both sides of the consumer rule at
// lvrmd's batch of 16: a VR of one VRI, which the monitor runs to completion,
// and a VR of two, each VRI on its own worker goroutine.
func BenchmarkLiveRuntimeInline(b *testing.B) {
	for _, vris := range []int{1, 2} {
		b.Run(fmt.Sprintf("vris%d", vris), func(b *testing.B) {
			benchLiveRuntime(b, Config{RecvBatch: 16, VRIBatch: 16, RelayBatch: 16}, vris)
		})
	}
}
