package ipc

import "sync"

// MutexQueue is a mutex-guarded ring buffer: the lock-based synchronization
// baseline of Section 3.5, in which only one process can access the queue at
// a time. It is safe for any number of producers and consumers.
type MutexQueue[T any] struct {
	mu    sync.Mutex
	buf   []T
	head  uint64
	tail  uint64
	mask  uint64
	drops int64
}

// NewMutexQueue returns an empty lock-based queue with capacity rounded up to
// a power of two.
func NewMutexQueue[T any](capacity int) *MutexQueue[T] {
	n := ceilPow2(capacity)
	return &MutexQueue[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Enqueue appends v and reports whether there was room.
func (q *MutexQueue[T]) Enqueue(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.tail-q.head > q.mask {
		q.drops++
		return false
	}
	q.buf[q.tail&q.mask] = v
	q.tail++
	return true
}

// Dequeue removes and returns the oldest element, if any.
func (q *MutexQueue[T]) Dequeue() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == q.tail {
		var zero T
		return zero, false
	}
	v := q.buf[q.head&q.mask]
	var zero T
	q.buf[q.head&q.mask] = zero
	q.head++
	return v, true
}

// Len reports the current number of queued elements.
func (q *MutexQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.tail - q.head)
}

// Cap reports the fixed capacity.
func (q *MutexQueue[T]) Cap() int { return len(q.buf) }

// Drops reports how many enqueues were rejected because the ring was full.
func (q *MutexQueue[T]) Drops() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.drops
}

var _ Queue[int] = (*MutexQueue[int])(nil)
