package ipc

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestBatchFIFOOrder(t *testing.T) {
	q := NewSPSC[int](16)
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n := q.EnqueueBatch(in); n != len(in) {
		t.Fatalf("EnqueueBatch = %d, want %d", n, len(in))
	}
	if q.Len() != len(in) {
		t.Fatalf("Len() = %d after batch enqueue, want %d", q.Len(), len(in))
	}
	out := make([]int, len(in))
	if n := q.DequeueBatch(out); n != len(in) {
		t.Fatalf("DequeueBatch = %d, want %d", n, len(in))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if n := q.DequeueBatch(out); n != 0 {
		t.Errorf("DequeueBatch on empty queue = %d, want 0", n)
	}
}

func TestBatchEmptySlices(t *testing.T) {
	q := NewSPSC[int](8)
	if n := q.EnqueueBatch(nil); n != 0 {
		t.Errorf("EnqueueBatch(nil) = %d", n)
	}
	if n := q.DequeueBatch(nil); n != 0 {
		t.Errorf("DequeueBatch(nil) = %d", n)
	}
}

func TestBatchPartialOnFull(t *testing.T) {
	q := NewSPSC[int](8) // capacity rounds to 8
	in := make([]int, 12)
	for i := range in {
		in[i] = i
	}
	n := q.EnqueueBatch(in)
	if n != q.Cap() {
		t.Fatalf("EnqueueBatch on empty ring = %d, want Cap()=%d", n, q.Cap())
	}
	if d := q.Drops(); d != int64(len(in)-n) {
		t.Errorf("Drops() = %d, want %d (rejected tail of the batch)", d, len(in)-n)
	}
	// A short output slice takes a partial batch; the rest stays queued.
	out := make([]int, 3)
	if got := q.DequeueBatch(out); got != 3 {
		t.Fatalf("DequeueBatch(short) = %d, want 3", got)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if q.Len() != n-3 {
		t.Errorf("Len() = %d after partial dequeue, want %d", q.Len(), n-3)
	}
	// An oversized output slice returns only what is available.
	big := make([]int, 16)
	if got := q.DequeueBatch(big); got != n-3 {
		t.Errorf("DequeueBatch(big) = %d, want %d", got, n-3)
	}
}

func TestBatchWraparound(t *testing.T) {
	q := NewSPSC[int](8)
	in := make([]int, 5)
	out := make([]int, 5)
	next := 0
	// 5 does not divide 8, so the cursors land on every offset of the ring.
	for round := 0; round < 1000; round++ {
		for i := range in {
			in[i] = next + i
		}
		if n := q.EnqueueBatch(in); n != len(in) {
			t.Fatalf("round %d: EnqueueBatch = %d", round, n)
		}
		if n := q.DequeueBatch(out); n != len(out) {
			t.Fatalf("round %d: DequeueBatch = %d", round, n)
		}
		for i, v := range out {
			if v != next+i {
				t.Fatalf("round %d: out[%d] = %d, want %d", round, i, v, next+i)
			}
		}
		next += len(in)
	}
	if q.Len() != 0 {
		t.Errorf("Len() = %d after balanced batches, want 0", q.Len())
	}
}

func TestBatchClearsSlotsForGC(t *testing.T) {
	q := NewSPSC[*int](4)
	x := 7
	q.EnqueueBatch([]*int{&x, &x})
	out := make([]*int, 2)
	q.DequeueBatch(out)
	for i := 0; i < 2; i++ {
		if q.buf[i] != nil {
			t.Errorf("slot %d still references the element after batch dequeue", i)
		}
	}
}

// TestBatchHelperFallback exercises the generic EnqueueBatch/DequeueBatch
// helpers over every queue variant: the SPSC takes its native path, the
// mutex variant falls back to scalar loops, and both must
// agree on FIFO order and partial-batch behavior.
func TestBatchHelperFallback(t *testing.T) {
	queues := map[string]Queue[*int]{
		"lock-free": New[*int](LockFree, 8),
		"locked":    New[*int](Locked, 8),
	}
	vals := make([]*int, 12)
	for i := range vals {
		v := i
		vals[i] = &v
	}
	for name, q := range queues {
		accepted := EnqueueBatch(q, vals)
		if accepted != q.Cap() {
			t.Errorf("%s: EnqueueBatch = %d, want Cap()=%d", name, accepted, q.Cap())
		}
		out := make([]*int, 16)
		n := DequeueBatch(q, out)
		if n != accepted {
			t.Errorf("%s: DequeueBatch = %d, want %d", name, n, accepted)
		}
		for i := 0; i < n; i++ {
			if *out[i] != i {
				t.Errorf("%s: out[%d] = %d, want %d", name, i, *out[i], i)
			}
		}
	}
}

// TestBatchPropertyVsScalar is the batched ops' equivalence check: any
// interleaving of batch enqueues and dequeues on the SPSC behaves exactly
// like the same elements pushed through scalar Enqueue/Dequeue on a model.
func TestBatchPropertyVsScalar(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewSPSC[uint8](16)
		var model []uint8
		next := uint8(0)
		for _, op := range ops {
			if op%2 == 0 { // enqueue a batch of op/16 (0..7) elements
				size := int(op / 16)
				in := make([]uint8, size)
				for i := range in {
					in[i] = next
					next++
				}
				accepted := q.EnqueueBatch(in)
				room := q.Cap() - len(model)
				want := size
				if want > room {
					want = room
				}
				if accepted != want {
					return false
				}
				model = append(model, in[:accepted]...)
			} else { // dequeue a batch of op/16 elements
				out := make([]uint8, int(op/16))
				got := q.DequeueBatch(out)
				want := len(out)
				if want > len(model) {
					want = len(model)
				}
				if got != want {
					return false
				}
				for i := 0; i < got; i++ {
					if out[i] != model[i] {
						return false
					}
				}
				model = model[got:]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBatchSPSCConcurrent runs batch producer against batch consumer: every
// element arrives exactly once, in order, across cursor wraparound.
func TestBatchSPSCConcurrent(t *testing.T) {
	const n = 200000
	const batch = 32
	q := NewSPSC[int](1024)
	done := make(chan error, 1)
	go func() {
		out := make([]int, batch)
		expect := 0
		for expect < n {
			m := q.DequeueBatch(out)
			if m == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < m; i++ {
				if out[i] != expect {
					done <- errValue{out[i], expect}
					return
				}
				expect++
			}
		}
		done <- nil
	}()
	in := make([]int, batch)
	for i := 0; i < n; {
		m := batch
		if n-i < m {
			m = n - i
		}
		for j := 0; j < m; j++ {
			in[j] = i + j
		}
		// A partially accepted batch counts its rejected tail as drops by
		// design; this producer simply regenerates from the new offset.
		accepted := q.EnqueueBatch(in[:m])
		if accepted == 0 {
			runtime.Gosched()
			continue
		}
		i += accepted
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIPCSPSCScalarPipelined(b *testing.B) {
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

// BenchmarkIPCSPSCBatchPipelined is the tentpole's microbenchmark: sustained
// producer/consumer throughput with both sides moving `batch` elements per
// cursor publication. Compare against BenchmarkIPCSPSCScalarPipelined.
func BenchmarkIPCSPSCBatchPipelined(b *testing.B) {
	for _, batch := range []int{4, 16, 64} {
		b.Run(itoa(batch), func(b *testing.B) {
			q := NewSPSC[int](4096)
			done := make(chan struct{})
			go func() {
				out := make([]int, batch)
				for n := 0; n < b.N; {
					m := q.DequeueBatch(out)
					if m == 0 {
						runtime.Gosched()
						continue
					}
					n += m
				}
				close(done)
			}()
			in := make([]int, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				m := batch
				if b.N-i < m {
					m = b.N - i
				}
				accepted := q.EnqueueBatch(in[:m])
				if accepted == 0 {
					runtime.Gosched()
					continue
				}
				i += accepted
			}
			<-done
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
