package ipc

import "sync/atomic"

// MPSC is a bounded lock-free multi-producer/single-consumer FIFO in the
// style of Vyukov's bounded queue: every slot carries a sequence number that
// hands ownership back and forth between producers and the consumer, and
// producers claim slots with one CAS on the enqueue cursor. Any number of
// goroutines may call Enqueue concurrently; exactly one goroutine may call
// Dequeue/DequeueBatch/Peek.
type MPSC[T any] struct {
	_      [cacheLine]byte
	enqPos atomic.Uint64 // next sequence to claim; CAS-advanced by producers
	_      [cacheLine - 8]byte
	deqPos atomic.Uint64 // next sequence to consume; written by consumer only
	_      [cacheLine - 8]byte

	mask  uint64
	buf   []mpscSlot[T]
	drops atomic.Int64 // rejected enqueues; off the fast path, scraped by obs
}

// mpscSlot pairs an element with its ownership sequence: seq == pos means the
// slot is free for the producer claiming pos, seq == pos+1 means the element
// at pos is published for the consumer.
type mpscSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// NewMPSC returns an empty multi-producer queue with capacity rounded up to a
// power of two.
func NewMPSC[T any](capacity int) *MPSC[T] {
	n := ceilPow2(capacity)
	q := &MPSC[T]{mask: uint64(n - 1), buf: make([]mpscSlot[T], n)}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

// Enqueue appends v and reports whether there was room. Safe for concurrent
// producers.
func (q *MPSC[T]) Enqueue(v T) bool {
	pos := q.enqPos.Load()
	for {
		s := &q.buf[pos&q.mask]
		seq := s.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			// The slot is free for whoever claims pos; the CAS is the claim.
			if q.enqPos.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1) // release: publishes the element
				return true
			}
			pos = q.enqPos.Load() // lost the race: retry on the new cursor
		case diff < 0:
			// The consumer has not freed this slot yet: the ring is full.
			q.drops.Add(1)
			return false
		default:
			// Another producer claimed pos but has not published yet;
			// re-read the cursor and try the next slot.
			pos = q.enqPos.Load()
		}
	}
}

// Dequeue removes and returns the oldest element. Consumer-side only.
func (q *MPSC[T]) Dequeue() (T, bool) {
	pos := q.deqPos.Load()
	s := &q.buf[pos&q.mask]
	if int64(s.seq.Load())-int64(pos+1) < 0 {
		var zero T
		return zero, false // not yet published: empty (or mid-publication)
	}
	v := s.val
	var zero T
	s.val = zero                  // release references for GC
	s.seq.Store(pos + q.mask + 1) // release: frees the slot for lap N+1
	q.deqPos.Store(pos + 1)
	return v, true
}

// Peek returns the oldest element without removing it. Consumer-side only.
func (q *MPSC[T]) Peek() (T, bool) {
	pos := q.deqPos.Load()
	s := &q.buf[pos&q.mask]
	if int64(s.seq.Load())-int64(pos+1) < 0 {
		var zero T
		return zero, false
	}
	return s.val, true
}

// EnqueueBatch appends the longest prefix of vs that fits and returns how
// many elements were accepted; the rest count as drops, matching the SPSC
// batch contract. Producers cannot publish a multi-slot run with one cursor
// move (slots are claimed one CAS at a time), so the batch is a scalar loop
// that stops at the first rejection.
func (q *MPSC[T]) EnqueueBatch(vs []T) int {
	for i, v := range vs {
		if !q.Enqueue(v) {
			// The failed Enqueue counted itself; the untried tail of the
			// batch is rejected wholesale and counted here.
			q.drops.Add(int64(len(vs) - i - 1))
			return i
		}
	}
	return len(vs)
}

// DequeueBatch removes up to len(out) elements into out in FIFO order and
// returns how many were delivered. Consumer-side only. Slot sequences must be
// released per element, but the consumer cursor is published once per batch.
func (q *MPSC[T]) DequeueBatch(out []T) int {
	if len(out) == 0 {
		return 0
	}
	pos := q.deqPos.Load()
	n := 0
	var zero T
	for n < len(out) {
		s := &q.buf[pos&q.mask]
		if int64(s.seq.Load())-int64(pos+1) < 0 {
			break
		}
		out[n] = s.val
		s.val = zero
		s.seq.Store(pos + q.mask + 1)
		pos++
		n++
	}
	if n > 0 {
		q.deqPos.Store(pos)
	}
	return n
}

// Len reports the current occupancy. Advisory under concurrency, like the
// SPSC ring: it may lag in-flight operations by a few elements.
func (q *MPSC[T]) Len() int {
	n := int(q.enqPos.Load() - q.deqPos.Load())
	if n < 0 {
		return 0
	}
	return n
}

// Cap reports the fixed capacity.
func (q *MPSC[T]) Cap() int { return len(q.buf) }

// Drops reports how many enqueues were rejected because the ring was full.
func (q *MPSC[T]) Drops() int64 { return q.drops.Load() }

var _ Queue[int] = (*MPSC[int])(nil)
