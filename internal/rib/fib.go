package rib

import (
	"fmt"
	"sync/atomic"

	"lvrm/internal/packet"
	"lvrm/internal/route"
)

// Route is the data-plane view of a best-path route: what a VRI needs to
// forward a frame, plus enough provenance (source, distance) to debug why
// this candidate won. Routes are immutable once published.
type Route struct {
	Prefix   packet.IP // masked to Bits
	Bits     uint8
	OutIf    int
	NextHop  packet.IP // 0 means directly connected
	Src      Source
	Distance uint8
}

func (r Route) String() string {
	return fmt.Sprintf("%v/%d -> if%d via %v (src=%d dist=%d)", r.Prefix, r.Bits, r.OutIf, r.NextHop, r.Src, r.Distance)
}

// Gen is one published FIB generation: an immutable route.Trie snapshot plus
// its generation number, which the data path reads lock-free. All methods
// are safe for unlimited concurrent readers.
type Gen struct {
	trie route.Trie[Route]
	seq  uint64
}

// Generation returns the monotonic generation number of this snapshot.
func (g *Gen) Generation() uint64 { return g.seq }

// Len returns the number of routes in this snapshot.
func (g *Gen) Len() int { return g.trie.Len() }

// Lookup returns the longest-prefix-match route for dst. It is
// allocation-free and never blocks: the snapshot is immutable.
func (g *Gen) Lookup(dst packet.IP) (Route, bool) { return g.trie.Lookup(dst) }

// LookupBatch resolves a vector of destinations against this one snapshot
// (see route.Trie.LookupBatch): out[i] is the route for dsts[i], nil when
// there is none. The routes are the snapshot's own and immutable like it.
func (g *Gen) LookupBatch(dsts []packet.IP, out []*Route) { g.trie.LookupBatch(dsts, out) }

// Routes returns all routes in the snapshot in trie (prefix) order.
func (g *Gen) Routes() []Route {
	out := make([]Route, 0, g.trie.Len())
	g.trie.Walk(func(r Route) { out = append(out, r) })
	return out
}

// FIB is the epoch-swapped forwarding table: a single atomic pointer to the
// current immutable generation. Readers call Snapshot once per scheduling
// quantum and do every lookup in that batch against the pinned generation;
// the RIB publishes new generations by deriving a trie from the current one
// (sharing all unmodified subtrees) and swapping the pointer. Readers never
// block and take no locks; writers never wait for readers.
type FIB struct {
	cur atomic.Pointer[Gen] // stored only by the owning RIB, under its mutex
}

// NewFIB returns a FIB holding an empty generation 0.
func NewFIB() *FIB {
	f := &FIB{}
	f.cur.Store(&Gen{})
	return f
}

// Snapshot returns the current generation. The returned *Gen is immutable
// and remains valid (and consistent) for as long as the caller holds it,
// regardless of later publications.
func (f *FIB) Snapshot() *Gen { return f.cur.Load() }

// Generation returns the current generation number.
func (f *FIB) Generation() uint64 { return f.cur.Load().seq }

// Len returns the number of routes in the current generation.
func (f *FIB) Len() int { return f.cur.Load().Len() }
