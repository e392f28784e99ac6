// Package rib is the dynamic control plane: a RIB (routing information
// base) that accepts streamed add/withdraw events from multiple concurrent
// protocol feeds, resolves best-path per prefix by admin distance, and
// publishes incremental deltas into an epoch-swapped immutable FIB that the
// data path reads without locks.
//
// The split mirrors a production router:
//
//   - The RIB side is mutex-guarded and unhurried: feeds call Apply (one
//     event) or ApplyAll (a batch, under one lock) from any goroutine;
//     candidates accumulate per (prefix, source); dirty prefixes batch until
//     Publish, or until the end of an Apply or ApplyAll call that leaves
//     MaxBatch or more pending.
//   - The FIB side is a route.Trie — the repository's one multibit trie
//     (six address bits per level), immutable by construction. Publish
//     derives the next trie from the current one through one route.Batch:
//     every untouched subtree is shared, and a node on the path to a
//     modified prefix is copied once per generation however many of the
//     generation's changes pass through it. The new generation is installed
//     with a single atomic pointer swap.
//
// Readers pin a generation once per scheduling quantum (see core's
// StepBatch) and do every lookup in that batch against the pinned
// snapshot, so a frame batch always sees one consistent routing epoch.
package rib

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lvrm/internal/obs"
	"lvrm/internal/packet"
	"lvrm/internal/route"
)

// Options configures a RIB.
type Options struct {
	// Clock returns nanoseconds; it times update-to-publish latency. The
	// testbed passes the simulated clock. Defaults to time.Now-based wall
	// clock when nil.
	Clock func() int64
	// MaxBatch auto-publishes when this many prefixes have unpublished
	// changes, checked once at the end of each Apply or ApplyAll call: an
	// ApplyAll of any size publishes at most one generation. 0 means publish
	// only on explicit Publish calls.
	MaxBatch int
}

// candidate is one source's offer for a prefix.
type candidate struct {
	src      Source
	distance uint8
	outIf    uint16
	nextHop  packet.IP
}

// prefixState tracks all candidates for one prefix plus what the published
// FIB currently holds for it.
type prefixState struct {
	cands []candidate
	pub   *Route // published best path, nil if absent from the FIB
}

// RIB accepts streamed route events, resolves best paths, and publishes
// incremental FIB generations. All methods are safe for concurrent use.
type RIB struct {
	fib      *FIB
	clock    func() int64
	maxBatch int

	mu       sync.Mutex
	prefixes map[uint64]*prefixState
	dirty    map[uint64]int64 // prefix key -> clock of first unpublished change

	updates     atomic.Int64
	withdrawals atomic.Int64
	rejected    atomic.Int64
	publishes   atomic.Int64
	changes     atomic.Int64

	publishLat *obs.Histogram // nil until Instrument
}

// New returns an empty RIB publishing into a fresh FIB (generation 0).
func New(o Options) *RIB {
	clock := o.Clock
	if clock == nil {
		start := time.Now()
		clock = func() int64 { return int64(time.Since(start)) }
	}
	return &RIB{
		fib:      NewFIB(),
		clock:    clock,
		maxBatch: o.MaxBatch,
		prefixes: make(map[uint64]*prefixState),
		dirty:    make(map[uint64]int64),
	}
}

// FIB returns the forwarding table this RIB publishes into. Hand it to the
// data path (vr.BasicConfig.FIB); it stays valid for the RIB's lifetime.
func (r *RIB) FIB() *FIB { return r.fib }

func key(p packet.IP, b uint8) uint64      { return uint64(p)<<8 | uint64(b) }
func keyParts(k uint64) (packet.IP, uint8) { return packet.IP(k >> 8), uint8(k) }

// Apply ingests one event from a protocol feed. Adds replace the same
// source's previous candidate for the prefix; withdraws remove it. The best
// path is re-resolved immediately, but the FIB only changes on Publish (or
// the MaxBatch auto-flush). Invalid events are counted and rejected.
func (r *RIB) Apply(e Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.applyLocked(e, r.clock())
	r.flushLocked()
	return err
}

// ApplyAll applies a batch of events under one lock, returning the first
// error (remaining events are still applied). The events enter the RIB
// together, at one clock reading, and MaxBatch is checked once, at the end,
// so the whole batch publishes as at most one generation.
func (r *RIB) ApplyAll(evs []Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	// An initial load sizes the maps once instead of through every doubling.
	if len(r.prefixes) == 0 {
		r.prefixes = make(map[uint64]*prefixState, len(evs))
	}
	if len(r.dirty) == 0 {
		r.dirty = make(map[uint64]int64, len(evs))
	}
	now := r.clock()
	var first error
	for _, e := range evs {
		if err := r.applyLocked(e, now); err != nil && first == nil {
			first = err
		}
	}
	r.flushLocked()
	return first
}

// applyLocked ingests one event that entered the RIB at clock reading now.
func (r *RIB) applyLocked(e Event, now int64) error {
	if e.Bits > 32 {
		r.rejected.Add(1)
		return fmt.Errorf("rib: invalid prefix length %d", e.Bits)
	}
	p := route.Mask(e.Prefix, e.Bits)
	k := key(p, e.Bits)

	ps := r.prefixes[k]
	if e.Withdraw {
		if ps == nil || !ps.withdraw(e.Src) {
			r.rejected.Add(1)
			return fmt.Errorf("rib: withdraw of unknown route %v/%d from src %d", p, e.Bits, e.Src)
		}
		r.withdrawals.Add(1)
	} else {
		if ps == nil {
			ps = &prefixState{}
			r.prefixes[k] = ps
		}
		ps.offer(candidate{src: e.Src, distance: e.Distance, outIf: e.OutIf, nextHop: e.NextHop})
		r.updates.Add(1)
	}

	// Re-resolve and reconcile the dirty set: a prefix is dirty iff its
	// desired best path differs from what the FIB has published.
	if ps.wantEquals(p, e.Bits) {
		delete(r.dirty, k) // flap canceled itself before publication
		if ps.pub == nil && len(ps.cands) == 0 {
			delete(r.prefixes, k)
		}
	} else if _, ok := r.dirty[k]; !ok {
		r.dirty[k] = now
	}
	return nil
}

// flushLocked publishes when MaxBatch or more prefixes are pending.
func (r *RIB) flushLocked() {
	if r.maxBatch > 0 && len(r.dirty) >= r.maxBatch {
		r.publishLocked()
	}
}

// offer inserts or replaces this source's candidate.
func (ps *prefixState) offer(c candidate) {
	for i := range ps.cands {
		if ps.cands[i].src == c.src {
			ps.cands[i] = c
			return
		}
	}
	ps.cands = append(ps.cands, c)
}

// withdraw removes this source's candidate, reporting whether it existed.
func (ps *prefixState) withdraw(src Source) bool {
	for i := range ps.cands {
		if ps.cands[i].src == src {
			ps.cands[i] = ps.cands[len(ps.cands)-1]
			ps.cands = ps.cands[:len(ps.cands)-1]
			return true
		}
	}
	return false
}

// best resolves the winning candidate: lowest admin distance, ties broken
// by lowest source id. Returns nil when no candidates remain.
func (ps *prefixState) best(p packet.IP, bits uint8) *Route {
	var win *candidate
	for i := range ps.cands {
		c := &ps.cands[i]
		if win == nil || c.distance < win.distance ||
			(c.distance == win.distance && c.src < win.src) {
			win = c
		}
	}
	if win == nil {
		return nil
	}
	return &Route{
		Prefix: p, Bits: bits,
		OutIf: int(win.outIf), NextHop: win.nextHop,
		Src: win.src, Distance: win.distance,
	}
}

// wantEquals reports whether the desired best path already matches the
// published one.
func (ps *prefixState) wantEquals(p packet.IP, bits uint8) bool {
	want := ps.best(p, bits)
	switch {
	case want == nil && ps.pub == nil:
		return true
	case want == nil || ps.pub == nil:
		return false
	}
	return *want == *ps.pub
}

// Publish builds a new FIB generation from all pending changes and installs
// it with one atomic swap. Returns the number of route changes published
// (0 when nothing was pending or every pending flap canceled out).
func (r *RIB) Publish() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked()
}

func (r *RIB) publishLocked() int {
	if len(r.dirty) == 0 {
		return 0
	}
	g := r.fib.Snapshot()
	b := g.trie.Batch()
	now := r.clock()
	changed := 0
	for k, since := range r.dirty {
		p, bits := keyParts(k)
		ps := r.prefixes[k]
		want := ps.best(p, bits)
		switch {
		case want == nil && ps.pub == nil:
			// flap canceled; nothing to do
		case want != nil && ps.pub != nil && *want == *ps.pub:
			// flap canceled back to the published value
		default:
			if want == nil {
				b.Delete(p, bits)
			} else {
				b.Set(p, bits, want)
			}
			ps.pub = want
			changed++
			r.publishLat.Observe(now - since)
		}
		if ps.pub == nil && len(ps.cands) == 0 {
			delete(r.prefixes, k)
		}
	}
	// A fresh map, not a cleared one: a Go map keeps the buckets of its
	// largest size, and one initial load would hold them for good.
	r.dirty = make(map[uint64]int64)
	if changed == 0 {
		return 0
	}
	r.fib.cur.Store(&Gen{trie: b.Trie(), seq: g.seq + 1})
	r.publishes.Add(1)
	r.changes.Add(int64(changed))
	return changed
}

// Stats is a point-in-time RIB/FIB summary.
type Stats struct {
	Routes      int    // best paths in the published FIB
	Prefixes    int    // prefixes with at least one candidate or published route
	Pending     int    // prefixes with unpublished changes
	Generation  uint64 // current FIB generation
	Updates     int64  // add events accepted
	Withdrawals int64  // withdraw events accepted
	Rejected    int64  // invalid or unmatched events
	Publishes   int64  // generations published
	Changes     int64  // route changes published across all generations
}

// Stats returns current counters.
func (r *RIB) Stats() Stats {
	r.mu.Lock()
	prefixes, pending := len(r.prefixes), len(r.dirty)
	r.mu.Unlock()
	g := r.fib.Snapshot()
	return Stats{
		Routes:      g.Len(),
		Prefixes:    prefixes,
		Pending:     pending,
		Generation:  g.seq,
		Updates:     r.updates.Load(),
		Withdrawals: r.withdrawals.Load(),
		Rejected:    r.rejected.Load(),
		Publishes:   r.publishes.Load(),
		Changes:     r.changes.Load(),
	}
}

// Instrument registers the RIB/FIB metric series on reg. Counters and
// gauges are scrape-time collectors over the existing atomics; the
// update-to-publish latency histogram is a hot-path handle observed inside
// Publish. See OBSERVABILITY.md for the metric table.
func (r *RIB) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.publishLat = reg.Histogram(
		"lvrm_rib_publish_latency_nanoseconds",
		"Time from a route change entering the RIB to its FIB publication.",
		obs.ExpBuckets(1000, 4, 12),
	)
	reg.Collect("lvrm_rib_routes", "Best-path routes in the published FIB.", obs.TypeGauge,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(r.fib.Len())})
		})
	reg.Collect("lvrm_rib_pending", "Prefixes with changes not yet published.", obs.TypeGauge,
		func(emit func(obs.Sample)) {
			r.mu.Lock()
			n := len(r.dirty)
			r.mu.Unlock()
			emit(obs.Sample{Value: float64(n)})
		})
	reg.Collect("lvrm_rib_updates_total", "Route add events accepted by the RIB.", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(r.updates.Load())})
		})
	reg.Collect("lvrm_rib_withdrawals_total", "Route withdraw events accepted by the RIB.", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(r.withdrawals.Load())})
		})
	reg.Collect("lvrm_rib_rejected_total", "Invalid or unmatched route events.", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(r.rejected.Load())})
		})
	reg.Collect("lvrm_rib_publishes_total", "FIB generations published.", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(r.publishes.Load())})
		})
	reg.Collect("lvrm_rib_changes_total", "Route changes published across all generations.", obs.TypeCounter,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(r.changes.Load())})
		})
	reg.Collect("lvrm_fib_generation", "Current FIB generation number.", obs.TypeGauge,
		func(emit func(obs.Sample)) {
			emit(obs.Sample{Value: float64(r.fib.Generation())})
		})
}

// EventsFromTable converts a static route.Table into add events from one
// source — the bridge from the paper's map files to the streaming RIB.
func EventsFromTable(t *route.Table, src Source, distance uint8) []Event {
	entries := t.Entries()
	out := make([]Event, 0, len(entries))
	for _, e := range entries {
		out = append(out, Event{
			Prefix: e.Prefix, Bits: uint8(e.Bits),
			OutIf: uint16(e.OutIf), NextHop: e.NextHop,
			Src: src, Distance: distance,
		})
	}
	return out
}
