package ipc

// EnqueueBatch and DequeueBatch move a run of elements under one cursor
// publication instead of one per element when q is one of the two rings —
// amortizing the release/acquire pair that Section 3.5 pays per frame — and
// fall back to scalar loops for the mutex variant.
//
// Both keep the scalar FIFO contract: a batch is an atomic-cursor
// optimization, not a transactional unit. EnqueueBatch accepts the longest
// prefix that fits and DequeueBatch returns the elements in queue order, so a
// batch of size 1 is indistinguishable from the scalar operation.
//
// The rings are picked out by their concrete types, not through an interface
// of batch methods: an argument to an interface method escapes, so a burst
// the caller keeps on its stack would move to the heap. A type switch also
// compares one type word, where an interface assertion looks up an itab on
// every call, and the relay polls every out-ring on every pass, most of them
// empty.

// EnqueueBatch appends the longest prefix of vs that fits into q and returns
// the number of elements accepted.
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

// DequeueBatch removes up to len(out) elements from q into out and returns the
// number of elements delivered.
func DequeueBatch[T any](q Queue[T], out []T) int {
	switch b := q.(type) {
	case *SPSC[T]:
		return b.DequeueBatch(out)
	case *MPSC[T]:
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
