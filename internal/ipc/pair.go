package ipc

// Pair bundles the incoming and outgoing queues that attach one VRI to LVRM,
// as drawn in Figure 2.1 of the paper. "In" carries items from LVRM toward
// the VRI; "Out" carries items from the VRI back toward LVRM. Each VRI owns
// two pairs: one for data frames and one for control events.
type Pair[T any] struct {
	In  Queue[T]
	Out Queue[T]
}

// NewPair creates an incoming/outgoing queue pair of the given kind and
// per-direction capacity.
func NewPair[T any](kind Kind, capacity int) Pair[T] {
	return Pair[T]{
		In:  New[T](kind, capacity),
		Out: New[T](kind, capacity),
	}
}
