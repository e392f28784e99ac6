// Package ipc provides the inter-process communication queues that connect
// LVRM with its virtual router instances (VRIs), following Section 3.5 of the
// paper. Each VRI is associated with two queue pairs: a data queue pair for
// raw frames and a control queue pair for inter-VRI control events. Control
// queues have strictly higher priority than data queues.
//
// The default implementation is a lock-free single-producer/single-consumer
// ring buffer in the style of Lamport (1977): producer and consumer may run
// concurrently as long as they never touch the same entry, coordinated only
// through two atomic cursors. A mutex-based queue — the lock-based baseline
// the paper measures it against — is the interchangeable variant, mirroring
// the paper's extensible design where improved queue implementations can be
// dropped in. MPSC is a multi-producer/single-consumer ring, coordinated by a
// CAS on the producer cursor; nothing in internal/core selects it, since the
// monitor is the only producer onto every VRI's incoming queues.
package ipc

// Queue is the minimal FIFO contract shared by all IPC queue variants.
//
// Enqueue returns false when the queue is full and Dequeue returns false when
// it is empty; neither ever blocks. Len and Cap are advisory under
// concurrency: Len may lag the true occupancy by in-flight operations, which
// is the same relaxation the paper's lock-free queue makes.
type Queue[T any] interface {
	// Enqueue appends v and reports whether there was room.
	Enqueue(v T) bool
	// Dequeue removes and returns the oldest element, if any.
	Dequeue() (T, bool)
	// Len reports the current number of queued elements.
	Len() int
	// Cap reports the fixed capacity of the queue.
	Cap() int
}

// DropCounter is implemented by queues that count rejected enqueues. Every
// shipped queue implements it; the observability layer scrapes the counts as
// per-queue tail-drop metrics.
type DropCounter interface {
	// Drops returns how many Enqueue calls have been rejected for want of
	// room since the queue was created.
	Drops() int64
}

// DropsOf returns q's enqueue-full drop count, or 0 if q does not count.
func DropsOf[T any](q Queue[T]) int64 {
	if d, ok := q.(DropCounter); ok {
		return d.Drops()
	}
	return 0
}

// Kind selects one of the shipped queue implementations.
type Kind int

const (
	// LockFree is the Lamport-style SPSC ring buffer (the paper's default).
	LockFree Kind = iota
	// Locked is a mutex-guarded ring buffer (the lock-based baseline the
	// paper compares against).
	Locked
	// MultiProducer is a Vyukov-style bounded MPSC ring: many producers,
	// one consumer.
	MultiProducer
)

// String returns the human-readable name of the queue kind.
func (k Kind) String() string {
	switch k {
	case LockFree:
		return "lock-free"
	case Locked:
		return "locked"
	case MultiProducer:
		return "mpsc"
	default:
		return "unknown"
	}
}

// New constructs a queue of the given kind with at least the requested
// capacity. Capacities are rounded up to a power of two so that ring indices
// reduce to a mask; the paper's shared-memory rings do the same.
func New[T any](kind Kind, capacity int) Queue[T] {
	switch kind {
	case Locked:
		return NewMutexQueue[T](capacity)
	case MultiProducer:
		return NewMPSC[T](capacity)
	default:
		return NewSPSC[T](capacity)
	}
}

// ceilPow2 rounds n up to the next power of two (minimum 2).
func ceilPow2(n int) int {
	if n < 2 {
		return 2
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
