package pool

import (
	"bytes"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lvrm/internal/packet"
)

func TestSizeClasses(t *testing.T) {
	p := New()
	cases := []struct {
		n, wantCap int
	}{
		{1, ClassSmall},
		{64, ClassSmall},
		{ClassSmall, ClassSmall},
		{ClassSmall + 1, ClassMedium},
		{ClassMedium, ClassMedium},
		{ClassMedium + 1, ClassLarge},
		{1518 + 64, ClassLarge},
		{ClassLarge, ClassLarge},
	}
	for _, c := range cases {
		f := p.Get(c.n)
		if len(f.Buf) != c.n {
			t.Fatalf("Get(%d): len = %d", c.n, len(f.Buf))
		}
		if cap(f.Buf) != c.wantCap {
			t.Fatalf("Get(%d): cap = %d, want class %d", c.n, cap(f.Buf), c.wantCap)
		}
		if !f.Pooled() || f.Refs() != 1 {
			t.Fatalf("Get(%d): pooled=%v refs=%d, want pooled refcount 1", c.n, f.Pooled(), f.Refs())
		}
		if f.Out != -1 {
			t.Fatalf("Get(%d): Out = %d, want -1", c.n, f.Out)
		}
		f.Release()
	}
	// Oversize requests use the exact pool: release a big buffer, then steal
	// it back for a smaller oversize request. The first attempt always
	// succeeds except under the race detector, where sync.Pool drops a
	// quarter of Puts on purpose — retry until one survives.
	attempts := 1
	if raceEnabled {
		attempts = 64
	}
	stole := false
	for i := 0; i < attempts && !stole; i++ {
		big := p.Get(ClassLarge + 1000)
		if cap(big.Buf) != ClassLarge+1000 {
			t.Fatalf("oversize Get: cap = %d", cap(big.Buf))
		}
		big.Release()
		st0 := p.Stats()
		smaller := p.Get(ClassLarge + 1)
		stole = p.Stats().Steals > st0.Steals
		// A retried round may steal a prior round's smaller buffer back,
		// so the exact-capacity check only holds on the deterministic path.
		if stole && !raceEnabled && cap(smaller.Buf) != ClassLarge+1000 {
			t.Fatalf("steal: cap = %d, want recycled %d", cap(smaller.Buf), ClassLarge+1000)
		}
		smaller.Release()
	}
	if !stole {
		t.Fatal("oversize reuse: no steal observed")
	}
}

func TestHitMissOutstandingAccounting(t *testing.T) {
	p := New()
	f := p.Get(64)
	st := p.Stats()
	if st.Gets != 1 || st.Misses != 1 || st.Hits != 0 || st.Outstanding != 1 {
		t.Fatalf("after first Get: %+v", st)
	}
	f.Release()
	st = p.Stats()
	if st.Recycles != 1 || st.Outstanding != 0 {
		t.Fatalf("after Release: %+v", st)
	}
	g := p.Get(100) // same class: must hit
	st = p.Stats()
	if raceEnabled {
		// Race mode drops Puts at random, so the hit may take a few
		// Release/Get rounds; the counting invariants must hold throughout.
		for st.Hits == 0 {
			if st.Gets > 64 {
				t.Fatalf("no pool hit in %d gets: %+v", st.Gets, st)
			}
			g.Release()
			g = p.Get(100)
			st = p.Stats()
		}
		if st.Hits+st.Misses != st.Gets || st.Outstanding != 1 {
			t.Fatalf("inconsistent accounting: %+v", st)
		}
	} else if st.Hits != 1 || st.Misses != 1 || st.Outstanding != 1 {
		t.Fatalf("after second Get: %+v", st)
	}
	g.Release()
}

func TestCopy(t *testing.T) {
	p := New()
	src := &packet.Frame{Buf: []byte{1, 2, 3, 4}, In: 3, Out: 7, Timestamp: 42}
	f := p.Copy(src)
	if !bytes.Equal(f.Buf, src.Buf) || f.In != 3 || f.Out != 7 || f.Timestamp != 42 {
		t.Fatalf("Copy mismatch: %+v", f)
	}
	f.Buf[0] = 99
	if src.Buf[0] != 1 {
		t.Fatal("Copy shares the buffer with its source")
	}
	f.Release()
}

// TestPooledBuildersMatchHeapBuilders proves the Build*Into paths fully
// overwrite dirty buffers: a poison-mode pool hands out PoisonByte-filled
// buffers, and the built frames must still be byte-identical to the heap
// builders' output (including the zeroed padding the heap path gets from
// make).
func TestPooledBuildersMatchHeapBuilders(t *testing.T) {
	p := NewWithOptions(Options{Poison: true})
	// Dirty the class pools first so the builders get recycled buffers.
	for _, n := range []int{64, 300, 1500} {
		p.Get(n).Release()
	}

	udpOpts := packet.UDPBuildOpts{
		Src: packet.IPv4(10, 0, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
		SrcPort: 1234, DstPort: 9, WireSize: packet.MinWireSize,
	}
	want, err := packet.BuildUDP(udpOpts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.BuildUDP(udpOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Buf, want.Buf) {
		t.Fatalf("pooled BuildUDP differs from heap BuildUDP:\n  got  %x\n  want %x", got.Buf, want.Buf)
	}
	got.Release()

	tcpOpts := packet.TCPBuildOpts{
		Src: packet.IPv4(10, 0, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
		Hdr:        packet.TCPHeader{SrcPort: 80, DstPort: 8080, Seq: 7, Flags: packet.TCPAck},
		PayloadLen: 200,
	}
	wantT, err := packet.BuildTCP(tcpOpts)
	if err != nil {
		t.Fatal(err)
	}
	gotT, err := p.BuildTCP(tcpOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotT.Buf, wantT.Buf) {
		t.Fatal("pooled BuildTCP differs from heap BuildTCP")
	}
	gotT.Release()

	icmpOpts := packet.ICMPBuildOpts{
		Src: packet.IPv4(10, 0, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
		Echo:       packet.ICMPEcho{Type: packet.ICMPEchoRequest, ID: 7, Seq: 3},
		PayloadLen: 56,
	}
	wantI, err := packet.BuildICMPEcho(icmpOpts)
	if err != nil {
		t.Fatal(err)
	}
	gotI, err := p.BuildICMPEcho(icmpOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotI.Buf, wantI.Buf) {
		t.Fatal("pooled BuildICMPEcho differs from heap BuildICMPEcho")
	}
	// The ICMP checksum must validate over the recycled (formerly poisoned)
	// payload — a missed zeroing would corrupt it.
	if _, err := packet.ParseICMPEcho(gotI.Buf[packet.EthHeaderLen+packet.IPv4HeaderLen:]); err != nil {
		t.Fatalf("pooled ICMP frame checksum: %v", err)
	}
	gotI.Release()
}

func TestReleaseUnpooledIsNoop(t *testing.T) {
	f := &packet.Frame{Buf: make([]byte, 64)}
	f.Release() // must not panic
	f.Release()
	if f.Retain() != f {
		t.Fatal("Retain must return the frame")
	}
	if f.Refs() != 0 || f.Pooled() || f.Shared() {
		t.Fatalf("unpooled frame grew refcount state: refs=%d", f.Refs())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := New()
	f := p.Get(64)
	f.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double release") {
			t.Fatalf("double release panic lacks diagnostic: %v", r)
		}
	}()
	f.Release()
}

func TestRetainReleaseFanOut(t *testing.T) {
	p := New()
	f := p.Get(64)
	f.Retain()
	if !f.Shared() || f.Refs() != 2 {
		t.Fatalf("after Retain: refs=%d shared=%v", f.Refs(), f.Shared())
	}
	f.Release()
	if f.Shared() || f.Refs() != 1 {
		t.Fatalf("after one Release: refs=%d", f.Refs())
	}
	f.Release()
	if got := p.Stats().Recycles; got != 1 {
		t.Fatalf("recycles = %d, want 1 (only the final Release recycles)", got)
	}
}

// TestPoisonDetectsUseAfterRelease releases a frame, writes through the stale
// reference, and expects the next Get of the same class to panic on the
// broken sentinel. Single-goroutine Put-then-Get hits the same sync.Pool
// private slot, so the poisoned buffer comes straight back — except under
// the race detector, where sync.Pool drops a quarter of Puts and the round
// trip must be retried until one survives.
func TestPoisonDetectsUseAfterRelease(t *testing.T) {
	p := NewWithOptions(Options{Poison: true})
	attempts := 1
	if raceEnabled {
		attempts = 64
	}
	for i := 0; i < attempts; i++ {
		if poisonRoundTrip(t, p) {
			return
		}
	}
	t.Fatal("Get after a use-after-release write did not panic")
}

// poisonRoundTrip corrupts a released buffer through a stale reference and
// reports whether the next Get of the same class caught it. A false return
// means sync.Pool dropped the Put (race mode) and a fresh buffer came back
// instead.
func poisonRoundTrip(t *testing.T, p *Pool) (panicked bool) {
	t.Helper()
	f := p.Get(64)
	stale := f.Buf
	f.Release()
	for i := range stale {
		if stale[i] != PoisonByte {
			t.Fatalf("released buffer byte %d = %#02x, want poison %#02x", i, stale[i], PoisonByte)
		}
	}
	stale[3] = 1 // the use-after-release bug
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "use-after-release") {
			t.Fatalf("poison panic lacks diagnostic: %v", r)
		}
		panicked = true
	}()
	g := p.Get(64) // reuses the corrupted buffer and panics, normally
	g.Release()
	return false
}

// TestRefcountTorture hammers Retain/Release/fan-out from many goroutines
// with poison mode on: run under -race, any reference-count bug shows up as a
// race on the buffer, a poison panic, or a refcount panic.
func TestRefcountTorture(t *testing.T) {
	p := NewWithOptions(Options{Poison: true})
	const (
		workers = 8
		iters   = 500
	)
	for it := 0; it < iters; it++ {
		f := p.Get(256)
		for i := range f.Buf {
			f.Buf[i] = byte(it)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			f.Retain()
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Read while holding a reference: must never observe poison.
				for _, b := range f.Buf {
					if b == PoisonByte && byte(it) != PoisonByte {
						panic("read poisoned byte while holding a reference")
					}
				}
				f.Release()
			}()
		}
		f.Release() // drop the base reference concurrently with the workers
		wg.Wait()
	}
	st := p.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after all releases, want 0", st.Outstanding)
	}
	if st.Recycles != iters {
		t.Fatalf("recycles = %d, want %d", st.Recycles, iters)
	}
}

// TestStatsUnderConcurrency: four goroutines cycle frames through all three
// size classes and the exact pool while a fifth takes snapshots. Every
// snapshot must be consistent (Gets is the sum of its parts, Outstanding is
// not negative) and no counter may run backwards between two snapshots — a
// scraper reads a decrease as a counter reset. Run it under -race.
func TestStatsUnderConcurrency(t *testing.T) {
	const iters = 5000
	p := New()
	sizes := []int{64, ClassSmall + 1, ClassMedium + 1, ClassLarge + 500, ClassLarge + 100}
	var workers, scraper sync.WaitGroup
	var done atomic.Bool
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		var prev Stats
		for !done.Load() {
			st := p.Stats()
			if st.Outstanding < 0 || st.Gets != st.Hits+st.Misses+st.Steals {
				t.Errorf("inconsistent snapshot: %+v", st)
				return
			}
			if st.Gets < prev.Gets || st.Hits < prev.Hits || st.Misses < prev.Misses ||
				st.Steals < prev.Steals || st.Recycles < prev.Recycles {
				t.Errorf("a counter ran backwards:\n  %+v\nthen\n  %+v", prev, st)
				return
			}
			prev = st
		}
	}()
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			held := make([]*packet.Frame, 0, 4)
			for i := 0; i < iters; i++ {
				n := sizes[(i+w)%len(sizes)]
				f := p.Get(n)
				if i%3 == 0 {
					c := p.Copy(f)
					f.Release()
					f = c
				}
				held = append(held, f)
				if len(held) == cap(held) {
					for _, h := range held {
						h.Release()
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				h.Release()
			}
		}(w)
	}
	workers.Wait()
	done.Store(true)
	scraper.Wait()
	st := p.Stats()
	const gets = 4 * (iters + (iters+2)/3) // a Get per iteration, a Copy per third
	if st.Outstanding != 0 || st.Gets != st.Recycles || st.Gets != gets {
		t.Fatalf("after the join: %+v, want Gets == Recycles == %d and Outstanding 0", st, gets)
	}
	if st.Steals == 0 {
		t.Fatalf("no steal: the exact pool's reuse was not exercised: %+v", st)
	}
}

// TestGetReleaseZeroAllocs is the pool's own allocs/frame regression: the
// steady-state Get→Release cycle must not touch the allocator.
func TestGetReleaseZeroAllocs(t *testing.T) {
	p := New()
	for i := 0; i < 100; i++ {
		p.Get(64).Release() // warm the class pool
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1000, func() {
		f := p.Get(64)
		f.Buf[0] = 1
		f.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Release allocates %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkPooledGetRelease is part of the CI alloc gate: it must report
// 0 allocs/op under -benchmem.
func BenchmarkPooledGetRelease(b *testing.B) {
	p := New()
	p.Get(64).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.Get(64)
		f.Buf[0] = byte(i)
		f.Release()
	}
}

// BenchmarkHeapGetRelease is the unpooled baseline for the same cycle.
func BenchmarkHeapGetRelease(b *testing.B) {
	b.ReportAllocs()
	var sink *packet.Frame
	for i := 0; i < b.N; i++ {
		f := &packet.Frame{Buf: make([]byte, 64), Out: -1}
		f.Buf[0] = byte(i)
		sink = f
	}
	_ = sink
}

// BenchmarkPooledBuildUDP measures the pooled builder path (CI alloc gate).
func BenchmarkPooledBuildUDP(b *testing.B) {
	p := New()
	opts := packet.UDPBuildOpts{
		Src: packet.IPv4(10, 0, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
		SrcPort: 1234, DstPort: 9, WireSize: packet.MinWireSize,
	}
	if f, err := p.BuildUDP(opts); err != nil {
		b.Fatal(err)
	} else {
		f.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := p.BuildUDP(opts)
		f.Release()
	}
}
