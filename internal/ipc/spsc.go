package ipc

import "sync/atomic"

// cacheLine is the assumed size of a CPU cache line. The head and tail
// cursors are padded to separate lines so that the producer and the consumer
// do not false-share, which is the whole point of the Lamport design: the
// producer writes only tail, the consumer writes only head, and each reads
// the other's cursor with an acquire load.
const cacheLine = 64

// SPSC is a bounded lock-free single-producer/single-consumer FIFO.
//
// Exactly one goroutine may call Enqueue and exactly one goroutine may call
// Dequeue; the two may run concurrently. The implementation follows Lamport's
// proof sketch: an entry at index i is owned by the producer while
// head <= i < tail is false, and ownership transfers through the release
// store on the cursor, so no element is ever accessed by both sides at once.
type SPSC[T any] struct {
	_    [cacheLine]byte
	head atomic.Uint64 // next index to dequeue; written by consumer only
	_    [cacheLine - 8]byte
	tail atomic.Uint64 // next index to enqueue; written by producer only
	_    [cacheLine - 8]byte

	// cachedHead/cachedTail let each side avoid re-reading the other's
	// cursor on every operation (FastForward-style optimization): the
	// producer only refreshes cachedHead when the ring looks full, the
	// consumer only refreshes cachedTail when it looks empty.
	cachedHead uint64 // producer-local snapshot of head
	_          [cacheLine - 8]byte
	cachedTail uint64 // consumer-local snapshot of tail
	_          [cacheLine - 8]byte

	mask  uint64
	buf   []T
	drops atomic.Int64 // rejected enqueues; off the fast path, scraped by obs
}

// NewSPSC returns an empty lock-free SPSC queue with capacity rounded up to a
// power of two.
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := ceilPow2(capacity)
	return &SPSC[T]{mask: uint64(n - 1), buf: make([]T, n)}
}

// Enqueue appends v and reports whether there was room. Producer-side only.
func (q *SPSC[T]) Enqueue(v T) bool {
	tail := q.tail.Load()
	if tail-q.cachedHead > q.mask {
		q.cachedHead = q.head.Load()
		if tail-q.cachedHead > q.mask {
			q.drops.Add(1)
			return false // full
		}
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1) // release: publishes the element
	return true
}

// Dequeue removes and returns the oldest element. Consumer-side only.
func (q *SPSC[T]) Dequeue() (T, bool) {
	head := q.head.Load()
	if head == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if head == q.cachedTail {
			var zero T
			return zero, false // empty
		}
	}
	v := q.buf[head&q.mask]
	var zero T
	q.buf[head&q.mask] = zero // release references for GC
	q.head.Store(head + 1)    // release: returns the slot
	return v, true
}

// EnqueueBatch appends the longest prefix of vs that fits and returns how
// many elements were accepted; the rest count as drops. Producer-side only.
// The whole batch is published with a single release store on the tail
// cursor, amortizing the cursor cache-line transfer the consumer pays to
// observe it — the Section 3.5 release/acquire pair happens once per batch
// instead of once per frame.
func (q *SPSC[T]) EnqueueBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	tail := q.tail.Load()
	free := q.mask + 1 - (tail - q.cachedHead)
	if uint64(len(vs)) > free {
		q.cachedHead = q.head.Load()
		free = q.mask + 1 - (tail - q.cachedHead)
	}
	n := uint64(len(vs))
	if n > free {
		n = free
		q.drops.Add(int64(uint64(len(vs)) - free))
	}
	for i := uint64(0); i < n; i++ {
		q.buf[(tail+i)&q.mask] = vs[i]
	}
	q.tail.Store(tail + n) // release: publishes the whole batch at once
	return int(n)
}

// DequeueBatch removes up to len(out) elements into out in FIFO order and
// returns how many were delivered. Consumer-side only. The freed slots are
// returned to the producer with a single release store on the head cursor.
func (q *SPSC[T]) DequeueBatch(out []T) int {
	if len(out) == 0 {
		return 0
	}
	head := q.head.Load()
	avail := q.cachedTail - head
	if uint64(len(out)) > avail {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - head
	}
	n := uint64(len(out))
	if n > avail {
		n = avail
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & q.mask
		out[i] = q.buf[idx]
		q.buf[idx] = zero // release references for GC
	}
	q.head.Store(head + n) // release: returns all slots at once
	return int(n)
}

// Peek returns the oldest element without removing it. Consumer-side only.
func (q *SPSC[T]) Peek() (T, bool) {
	head := q.head.Load()
	if head == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if head == q.cachedTail {
			var zero T
			return zero, false
		}
	}
	return q.buf[head&q.mask], true
}

// Len reports the current occupancy. It is exact when the queue is idle and
// a lower/upper bound by at most one in-flight operation otherwise.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// Cap reports the fixed capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Drops reports how many enqueues were rejected because the ring was full.
func (q *SPSC[T]) Drops() int64 { return q.drops.Load() }

var _ Queue[int] = (*SPSC[int])(nil)
