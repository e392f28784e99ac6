package vr

// State-compute replication (arXiv 2309.14647) scales one stateful router
// across cores by partitioning flows over replica instances — but only if
// every piece of router state is classified by how replicas may touch it.
// StateSpec is that classification: an engine declares each of its stateful
// elements so the replication layer in internal/core knows which accesses
// are safe under flow-partitioned replicas and which need merge-on-read or
// serialization through a designated replica.
//
// The three classes:
//
//   - StateSharded: keyed by flow (or derivable from one flow's frames), so
//     flow-partitioned dispatch makes each replica the sole owner of its
//     slice. No coordination needed — the flow table's pin is the ownership
//     record. Example: per-flow ARP bindings, connection state.
//   - StateMerged: replicated per replica and folded on read. Writes are
//     replica-local (no contention); any global view sums or otherwise
//     merges the per-replica values. Example: forwarded/dropped counters.
//   - StateSerialized: must observe one total order across the VR, so all
//     accesses route through the designated replica (the lowest-ID live
//     one). Example: stateful NAT port allocation. The shipped engines have
//     no serialized elements; the class exists so future engines can
//     declare one and the split logic can refuse to replicate past it.
//
// An engine that does not implement StateDeclarer is treated as all-sharded:
// safe by construction for engines whose only cross-frame state is keyed by
// flow, which is the conservative default documented in DESIGN.md §9. The
// shared epoch-swapped FIB needs no declaration at all — its generations are
// immutable, so it is replica-safe the same way it is VRI-safe.

// StateClass says how replicas of one VR may access a stateful element.
type StateClass int

const (
	// StateSharded elements are owned per-flow; the flow partition makes
	// each replica the exclusive owner of its slice.
	StateSharded StateClass = iota
	// StateMerged elements are kept per-replica and folded on read
	// (e.g. counters summed across replicas).
	StateMerged
	// StateSerialized elements require a single total order and are
	// routed through the designated (lowest-ID) replica.
	StateSerialized
)

// String returns the class name used in metrics and docs.
func (c StateClass) String() string {
	switch c {
	case StateSharded:
		return "sharded"
	case StateMerged:
		return "merged"
	case StateSerialized:
		return "serialized"
	default:
		return "unknown"
	}
}

// StateElem names one stateful element of an engine and its class.
type StateElem struct {
	Name  string
	Class StateClass
}

// StateSpec is an engine's full state declaration.
type StateSpec []StateElem

// Replicable reports whether a VR hosting this engine may run more than one
// replica: true unless some element is serialized (serialized elements are
// declared for future engines; the core refuses to split past them until a
// designated-replica relay exists).
func (s StateSpec) Replicable() bool {
	for _, e := range s {
		if e.Class == StateSerialized {
			return false
		}
	}
	return true
}

// StateDeclarer is implemented by engines that declare their state classes.
// Engines without it are treated as all-sharded (replicable).
type StateDeclarer interface {
	StateSpec() StateSpec
}

// SpecOf returns e's state declaration, or nil (all-sharded) if e does not
// declare one.
func SpecOf(e Engine) StateSpec {
	if d, ok := e.(StateDeclarer); ok {
		return d.StateSpec()
	}
	return nil
}

// StateSpec declares the basic engine's state for replication:
//
//   - forwarded/dropped counters are per-replica and summed on read;
//   - ARP bindings are keyed by sender, which flow partitioning shards;
//   - the static route table is cloned per VRI and only written via control
//     events applied to every replica (routesync), so each replica's copy
//     converges — sharded from the replication layer's point of view;
//   - the FIB is immutable-generation shared state and needs no class.
func (b *Basic) StateSpec() StateSpec {
	return StateSpec{
		{Name: "counters", Class: StateMerged},
		{Name: "arp-bindings", Class: StateSharded},
		{Name: "static-routes", Class: StateSharded},
	}
}

var _ StateDeclarer = (*Basic)(nil)
