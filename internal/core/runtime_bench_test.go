package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
)

// BenchmarkLiveRuntimeQueueKinds measures end-to-end live throughput of the
// monitor + one VRI goroutine for each IPC queue implementation — the
// §3.5 lock-free vs lock-based comparison on the real data path rather
// than in isolation.
func BenchmarkLiveRuntimeQueueKinds(b *testing.B) {
	for _, kind := range []ipc.Kind{ipc.LockFree, ipc.Locked} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			ca := netio.NewChanAdapter(8192)
			l, err := New(Config{Adapter: ca, Clock: WallClock, QueueKind: kind})
			if err != nil {
				b.Fatal(err)
			}
			rt := NewRuntime(l)
			if _, err := l.AddVR(VRConfig{
				Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
				Engine: testEngineFactory(b),
			}); err != nil {
				b.Fatal(err)
			}
			rt.Start()
			defer rt.Stop()
			frames := make([]*packet.Frame, 256)
			for i := range frames {
				frames[i] = frameFrom(b, "10.1.0.5", "10.2.0.1")
			}
			// The monitor's per-VRI queues tail-drop under unbounded
			// flooding (by design), which would strand the consumer; cap
			// the frames in flight well below the queue depth instead.
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
		})
	}
}

// BenchmarkLiveRuntimeBatch measures the same end-to-end path at different
// batch sizes on the receive, VRI and relay stages. Batch 1 is the per-frame
// baseline; larger batches amortize one cursor publication and one adapter
// poll across the run of frames.
func BenchmarkLiveRuntimeBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		batch := batch
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			ca := netio.NewChanAdapter(8192)
			l, err := New(Config{
				Adapter: ca, Clock: WallClock,
				RecvBatch: batch, VRIBatch: batch, RelayBatch: batch,
			})
			if err != nil {
				b.Fatal(err)
			}
			rt := NewRuntime(l)
			if _, err := l.AddVR(VRConfig{
				Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
				Engine: testEngineFactory(b),
			}); err != nil {
				b.Fatal(err)
			}
			rt.Start()
			defer rt.Stop()
			frames := make([]*packet.Frame, 256)
			for i := range frames {
				frames[i] = frameFrom(b, "10.1.0.5", "10.2.0.1")
			}
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
		})
	}
}
