package ipc

// BatchQueue is implemented by queues with native batch operations: moving a
// run of elements under one cursor publication (or one lock acquisition)
// instead of one per element. The SPSC ring implements it natively —
// amortizing the release/acquire pair that Section 3.5 pays per frame — and
// the package-level EnqueueBatch/DequeueBatch helpers fall back to scalar
// loops for the mutex variant.
//
// Both operations keep the scalar FIFO contract: a batch is an atomic-cursor
// optimization, not a transactional unit. EnqueueBatch accepts the longest
// prefix that fits and DequeueBatch returns the elements in queue order, so a
// batch of size 1 is indistinguishable from the scalar operation.
type BatchQueue[T any] interface {
	Queue[T]
	// EnqueueBatch appends the longest prefix of vs that fits and returns
	// how many elements were accepted. Rejected elements count as drops.
	EnqueueBatch(vs []T) int
	// DequeueBatch removes up to len(out) elements into out, preserving
	// FIFO order, and returns how many were delivered.
	DequeueBatch(out []T) int
}

// EnqueueBatch appends the longest prefix of vs that fits into q, using the
// queue's native batch operation when it has one and falling back to scalar
// Enqueue calls otherwise. It returns the number of elements accepted.
//
// The two rings are picked out by their concrete types, not through
// BatchQueue: an argument to an interface method escapes, and flow dispatch
// publishes pieces of the caller's own burst, which LVRM.Dispatch keeps on
// its stack — the hit path must not allocate.
//
// Drop accounting differs slightly between the two paths: a native batch
// counts every rejected element, while the scalar fallback stops at the
// first rejection (counting one drop), since on a full queue retrying the
// remainder could reorder elements past a concurrent consumer.
func EnqueueBatch[T any](q Queue[T], vs []T) int {
	switch b := q.(type) {
	case *SPSC[T]:
		return b.EnqueueBatch(vs)
	case *MPSC[T]:
		return b.EnqueueBatch(vs)
	}
	for i, v := range vs {
		if !q.Enqueue(v) {
			return i
		}
	}
	return len(vs)
}

// DequeueBatch removes up to len(out) elements from q into out, using the
// queue's native batch operation when it has one and falling back to scalar
// Dequeue calls otherwise. It returns the number of elements delivered.
func DequeueBatch[T any](q Queue[T], out []T) int {
	if b, ok := q.(BatchQueue[T]); ok {
		return b.DequeueBatch(out)
	}
	for i := range out {
		v, ok := q.Dequeue()
		if !ok {
			return i
		}
		out[i] = v
	}
	return len(out)
}
