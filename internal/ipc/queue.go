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
// dropped in. MPSC is the multi-producer/single-consumer ring the
// flow-sharded dispatch path uses: several ingest shards enqueue to one VRI,
// coordinated by a CAS on the producer cursor, with full-queue rejections
// counted in Drops.
//
// Queues are closeable for graceful shutdown: Close makes further Enqueues
// fail fast (and be counted) while Dequeue keeps draining the residue, so a
// VRI being destroyed can flush in-flight frames without accepting new
// work — the drain step of the core lifecycle state machine.
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

// Closer is implemented by queues that support drain semantics for VRI
// teardown (the lifecycle's Draining state): Close stops admissions so the
// consumer can drain the residue and take ownership of whatever remains.
//
//   - Enqueue after Close fails fast and counts into Drops; the caller keeps
//     ownership of the rejected element (for frames: it must Release).
//   - Dequeue after Close still drains every element enqueued before the
//     close — residue is handed over, never lost.
//
// Close only publishes a flag; an enqueue racing with the Close may still
// land, and is part of the residue. Every shipped queue implements Closer.
type Closer interface {
	// Close marks the queue closed for enqueue. Safe to call from any
	// goroutine, idempotent.
	Close()
	// Closed reports whether Close has been called.
	Closed() bool
}

// Reopener is implemented by queues whose Close can be undone. The replica
// split protocol uses it: the monitor closes a replica's data-in ring while
// it transplants the flow-partition, then reopens it so dispatch resumes.
// Like Close, Reopen only publishes a flag — it is safe from any goroutine
// and idempotent. Every shipped queue implements Reopener.
type Reopener interface {
	// Reopen clears the closed flag so Enqueue is admitted again.
	Reopen()
}

// Close closes q for enqueue if it supports drain semantics, reporting
// whether it did.
func Close[T any](q Queue[T]) bool {
	if c, ok := q.(Closer); ok {
		c.Close()
		return true
	}
	return false
}

// Reopen re-admits enqueues on a closed queue, reporting whether q supports
// reopening.
func Reopen[T any](q Queue[T]) bool {
	if r, ok := q.(Reopener); ok {
		r.Reopen()
		return true
	}
	return false
}

// IsClosed reports whether q has been closed for enqueue (false for queues
// without drain semantics).
func IsClosed[T any](q Queue[T]) bool {
	if c, ok := q.(Closer); ok {
		return c.Closed()
	}
	return false
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
	// one consumer. The flow-sharded dispatch path uses it for VRI data-in
	// queues, where several ingest goroutines may enqueue concurrently.
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
