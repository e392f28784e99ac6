package ipc

import (
	"runtime"
	"testing"
	"testing/quick"
)

func kinds() []Kind { return []Kind{LockFree, Locked} }

func TestKindString(t *testing.T) {
	want := map[Kind]string{LockFree: "lock-free", Locked: "locked", MultiProducer: "mpsc", Kind(99): "unknown"}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{-4: 2, 0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	for _, k := range kinds() {
		q := New[int](k, 16)
		for i := 0; i < 10; i++ {
			if !q.Enqueue(i) {
				t.Fatalf("%v: Enqueue(%d) failed on non-full queue", k, i)
			}
		}
		if q.Len() != 10 {
			t.Errorf("%v: Len() = %d, want 10", k, q.Len())
		}
		for i := 0; i < 10; i++ {
			v, ok := q.Dequeue()
			if !ok || v != i {
				t.Fatalf("%v: Dequeue() = (%d,%v), want (%d,true)", k, v, ok, i)
			}
		}
		if _, ok := q.Dequeue(); ok {
			t.Errorf("%v: Dequeue on empty queue reported ok", k)
		}
	}
}

func TestFullRejects(t *testing.T) {
	for _, k := range kinds() {
		q := New[int](k, 4)
		n := 0
		for q.Enqueue(n) {
			n++
			if n > 1<<16 {
				t.Fatalf("%v: queue never reports full", k)
			}
		}
		if n < 4 {
			t.Errorf("%v: capacity %d below requested 4", k, n)
		}
		if n != q.Cap() {
			t.Errorf("%v: accepted %d items, Cap() = %d", k, n, q.Cap())
		}
		// Draining one slot must make room for exactly one more.
		if _, ok := q.Dequeue(); !ok {
			t.Fatalf("%v: Dequeue failed on full queue", k)
		}
		if !q.Enqueue(n) {
			t.Errorf("%v: Enqueue failed after one Dequeue", k)
		}
		if q.Enqueue(n + 1) {
			t.Errorf("%v: Enqueue succeeded on re-filled queue", k)
		}
	}
}

func TestWraparound(t *testing.T) {
	for _, k := range kinds() {
		q := New[int](k, 8)
		// Push/pop many times capacity to force the cursors to wrap.
		for i := 0; i < 1000; i++ {
			if !q.Enqueue(i) {
				t.Fatalf("%v: Enqueue(%d) failed", k, i)
			}
			v, ok := q.Dequeue()
			if !ok || v != i {
				t.Fatalf("%v: round %d got (%d,%v)", k, i, v, ok)
			}
		}
		if q.Len() != 0 {
			t.Errorf("%v: Len() = %d after balanced ops, want 0", k, q.Len())
		}
	}
}

func TestZeroValueClearedForGC(t *testing.T) {
	q := NewSPSC[*int](4)
	x := 7
	q.Enqueue(&x)
	q.Dequeue()
	// The slot behind head must no longer hold the pointer.
	if q.buf[0] != nil {
		t.Error("dequeued slot still references the element")
	}
}

func TestPeek(t *testing.T) {
	q := NewSPSC[int](4)
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty queue reported ok")
	}
	q.Enqueue(42)
	if v, ok := q.Peek(); !ok || v != 42 {
		t.Errorf("Peek = (%d,%v), want (42,true)", v, ok)
	}
	if q.Len() != 1 {
		t.Errorf("Peek consumed the element: Len() = %d", q.Len())
	}
	if v, _ := q.Dequeue(); v != 42 {
		t.Errorf("Dequeue after Peek = %d, want 42", v)
	}
}

// TestSPSCConcurrent checks the lock-free queue's core guarantee: with one
// producer and one consumer running concurrently, every element arrives
// exactly once and in order.
func TestSPSCConcurrent(t *testing.T) {
	const n = 200000
	q := NewSPSC[int](1024)
	done := make(chan error, 1)
	go func() {
		expect := 0
		for expect < n {
			v, ok := q.Dequeue()
			if !ok {
				runtime.Gosched()
				continue
			}
			if v != expect {
				done <- errValue{v, expect}
				return
			}
			expect++
		}
		done <- nil
	}()
	for i := 0; i < n; {
		if q.Enqueue(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

type errValue struct{ got, want int }

func (e errValue) Error() string { return "out-of-order element" }

// TestMutexQueueConcurrentMPMC checks the lock-based queue under multiple
// producers and consumers: every element is delivered exactly once.
func TestMutexQueueConcurrentMPMC(t *testing.T) {
	const producers, perProducer = 4, 20000
	q := NewMutexQueue[int](256)
	total := producers * perProducer
	seen := make(chan int, total)
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < perProducer; i++ {
				v := p*perProducer + i
				for !q.Enqueue(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	done := make(chan struct{})
	for c := 0; c < 2; c++ {
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				if v, ok := q.Dequeue(); ok {
					seen <- v
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	got := make(map[int]bool, total)
	for i := 0; i < total; i++ {
		v := <-seen
		if got[v] {
			t.Fatalf("element %d delivered twice", v)
		}
		got[v] = true
	}
	close(done)
}

// TestQueuePropertySequential is a property-based check: any sequence of
// enqueue/dequeue operations on a queue behaves identically to a model slice.
func TestQueuePropertySequential(t *testing.T) {
	for _, k := range kinds() {
		k := k
		f := func(ops []uint8) bool {
			q := New[uint8](k, 32)
			var model []uint8
			for _, op := range ops {
				if op%2 == 0 { // enqueue op/2
					v := op / 2
					okQ := q.Enqueue(v)
					okM := len(model) < q.Cap()
					if okQ != okM {
						return false
					}
					if okM {
						model = append(model, v)
					}
				} else { // dequeue
					v, ok := q.Dequeue()
					if ok != (len(model) > 0) {
						return false
					}
					if ok {
						if v != model[0] {
							return false
						}
						model = model[1:]
					}
				}
				if q.Len() != len(model) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

func TestPairAndEndpoint(t *testing.T) {
	p := NewPair[string](LockFree, 8)
	if p.In.Cap() != 8 || p.Out.Cap() != 8 {
		t.Fatalf("pair capacities = %d/%d, want 8/8", p.In.Cap(), p.Out.Cap())
	}
	// The two directions are separate queues.
	p.In.Enqueue("frame1")
	if p.Out.Len() != 0 {
		t.Fatal("an inbound item showed up on the outbound queue")
	}
	if !p.Out.Enqueue("d") {
		t.Fatal("outbound enqueue failed on an empty queue")
	}
	if v, _ := p.In.Dequeue(); v != "frame1" {
		t.Errorf("in = %q, want frame1", v)
	}
	if v, _ := p.Out.Dequeue(); v != "d" {
		t.Errorf("out = %q, want d", v)
	}
}

func BenchmarkSPSCEnqueueDequeue(b *testing.B) {
	q := NewSPSC[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(i)
		q.Dequeue()
	}
}

func BenchmarkMutexEnqueueDequeue(b *testing.B) {
	q := NewMutexQueue[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(i)
		q.Dequeue()
	}
}

// BenchmarkSPSCPipelined measures sustained producer/consumer throughput with
// both sides running concurrently — the configuration the LVRM data path uses.
func BenchmarkSPSCPipelined(b *testing.B) {
	q := NewSPSC[int](4096)
	done := make(chan struct{})
	go func() {
		for n := 0; n < b.N; {
			if _, ok := q.Dequeue(); ok {
				n++
			} else {
				runtime.Gosched()
			}
		}
		close(done)
	}()
	for i := 0; i < b.N; {
		if q.Enqueue(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	<-done
}
