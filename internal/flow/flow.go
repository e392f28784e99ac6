// Package flow implements flow classification and the flow-affinity table
// that keeps every frame of a flow on one VRI.
//
// A flow is a 64-bit key (see KeyOf): the 5-tuple hash for decodable frames,
// a bytes+length hash otherwise. The Table remembers which VRI each flow was
// assigned to, so every frame of a flow lands on the same VRI queue and
// per-flow ordering is preserved — the connection tracking of the paper's
// flow-based balancing, whose balancer (core's VRConfig.Balancer) then picks
// a VRI only for each new or re-balanced flow.
//
// Concurrency model: one goroutine owns the table — in LVRM, the monitor,
// which dispatches, spawns and destroys VRIs and runs the migration engine's
// Transfer — and only that goroutine calls the methods that read or write
// pins (Assign, AssignHits, Transfer, PinOf, BumpEpoch). Nothing on that path
// takes a lock. Readers on other goroutines (status and metrics scrapes) call
// Stats, Len, PartitionSizes and Cap, which read only values the writer
// publishes atomically — the outcome counters, the per-owner pin counts — or
// never changes, the slab's size. They never touch the slab. The per-owner
// counts are published under a sequence count, so Len and PartitionSizes
// report counts the table actually held, never half of a Transfer.
//
// Storage model: one flat slab of 8-byte pins (no pointers, one allocation),
// probed linearly over a bounded window from the key's home slot. A pin packs
// the key's upper 48 bits, a stale bit and a 15-bit owner slot; the owner
// slot indexes a small table of VRI IDs and their pin counts. Two keys that
// differ only in their low 16 bits share a pin, and so a VRI: a tag collision
// merges two flows' affinity but never splits or reorders either flow. The
// slab is allocated at the table's capacity when the table is made, so a
// table costs its full size from the start and no frame ever waits on a
// resize. A new key whose probe window is full is the one turned away
// (Outcome Overflow): it is dispatched without a pin and counted, preserving
// affinity for everything already established.
//
// VRI lifecycle is handled with a stale bit, not synchronization: spawning or
// destroying a VRI sets every pin's stale bit in one pass (BumpEpoch). A stale
// pin is not discarded — on its next frame the caller's keep callback decides
// whether moving the flow is safe (see Table.Assign), so teardown never
// blocks the data path and affinity survives lifecycle events whenever
// possible.
package flow

import (
	"runtime"
	"slices"
	"sync/atomic"
)

// probeWindow is how many slots from the home slot a pin may sit. It bounds
// both lookup cost and the clustering the slab tolerates before a new flow
// overflows: 32 pins of 8 bytes, four cache lines.
const probeWindow = 32

// A pin is one uint64, 0 for an empty slot:
//
//	bits 63..16  tag: the key's upper 48 bits, which also give the home slot
//	bit  15      stale: set by BumpEpoch, cleared by a refresh or a re-pin
//	bits 14..0   owner slot, 1..maxOwner — never 0, so no pin is 0
const (
	tagMask   = ^uint64(0xffff)
	staleBit  = uint64(1) << 15
	ownerMask = staleBit - 1
	// doomed is the owner a Transfer writes into a pin it deletes, until its
	// second pass removes the pin; no VRI is ever given this slot.
	doomed   = ownerMask
	maxOwner = 1<<15 - 2 // owner slots are 1..maxOwner
)

// homeOf returns the home slot of a key or pin in a slab of mask+1 slots,
// taken from the low bits of the tag.
func homeOf(k, mask uint64) uint64 { return (k >> 16) & mask }

// Outcome says how Assign resolved a key against the table.
type Outcome int

const (
	// Hit: the key was pinned and not stale; the pin was returned.
	Hit Outcome = iota
	// Refreshed: the pin was stale (a VRI was spawned or destroyed since)
	// but the keep callback ruled moving unsafe (or unnecessary); the pin was
	// kept and is fresh again.
	Refreshed
	// Miss: the key was not in the table; pick chose a VRI and the
	// assignment was installed.
	Miss
	// Rebalanced: the pin was stale, the keep callback released it, and pick
	// chose a (possibly different) VRI that was re-installed.
	Rebalanced
	// Refused: pick declined to choose a VRI, so nothing is pinned. For a
	// stale pin this also deletes the dead pin (counted in Stats.Unpinned)
	// rather than leaving it to fail again on every later frame.
	Refused
	// Overflow: pick chose a VRI but the table is at its capacity with the
	// key's probe window full, so the choice was returned without being
	// pinned — the new flow runs unpinned instead of evicting an
	// established one.
	Overflow
)

// String returns the outcome name as used in traces and metrics.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Refreshed:
		return "refreshed"
	case Miss:
		return "miss"
	case Rebalanced:
		return "rebalanced"
	case Refused:
		return "refused"
	case Overflow:
		return "overflow"
	default:
		return "unknown"
	}
}

// find returns the index of the pin tagged tag, or -1. The slab keeps every
// pin's run from its home slot unbroken (inserts take the first empty slot,
// deletes shift the rest of the run back), so the probe stops at the first
// empty slot.
func (t *Table) find(tag uint64) int {
	home := homeOf(tag, t.mask)
	for d := uint64(0); d < probeWindow; d++ {
		i := (home + d) & t.mask
		p := t.pins[i]
		if p == 0 {
			return -1
		}
		if p&tagMask == tag {
			return int(i)
		}
	}
	return -1
}

// place writes pin into the first empty slot of its probe window, reporting
// whether there was one.
func (t *Table) place(pin uint64) bool {
	home := homeOf(pin, t.mask)
	for d := uint64(0); d < probeWindow; d++ {
		i := (home + d) & t.mask
		if t.pins[i] == 0 {
			t.pins[i] = pin
			return true
		}
	}
	return false
}

// remove deletes the pin at i and shifts the rest of its run back, each pin
// to the earliest emptied slot that does not precede its home, so that find
// still reaches every pin without crossing an empty slot.
func (t *Table) remove(i uint64) {
	for {
		t.pins[i] = 0
		j := i
		for {
			j = (j + 1) & t.mask
			p := t.pins[j]
			if p == 0 {
				return
			}
			// p may fill the hole at i if i lies between p's home and j.
			if (j-homeOf(p, t.mask))&t.mask >= (j-i)&t.mask {
				t.pins[i] = p
				i = j
				break
			}
		}
	}
}

// owner is one owner slot: the VRI it names and how many pins name it. A
// slot with no pins is free and may be given to another VRI.
type owner struct {
	vri  int32
	pins int32
}

// Stats is a point-in-time snapshot of the table's outcome counters.
type Stats struct {
	Hits       int64
	Misses     int64 // dispatches that installed a new pin
	Refreshes  int64
	Rebalances int64 // stale pins actually re-installed on a new VRI
	Refusals   int64 // pick declined; nothing was installed
	Overflows  int64 // new flows turned away by a full probe window
	// Evictions is always 0: a pin leaves the slab only by a delete. The
	// field stays while the flash-crowd baseline reports it.
	Evictions int64
	Unpinned  int64 // pins deleted (teardown sweep, or stale pin with refused repick)
}

// Table is the flow-affinity map. The pin methods (Assign, AssignHits,
// Transfer, PinOf, BumpEpoch) must all be called from one goroutine; Stats,
// Len, PartitionSizes and Cap are safe from any goroutine.
type Table struct {
	// pins is the slab, a power-of-two open-addressing array probed
	// linearly over probeWindow slots from each key's home.
	pins []uint64
	mask uint64

	// owners[s] is owner slot s (owners[0] is never used). pub mirrors each
	// slot for the readers as vri<<32 | pins, and is replaced, never resized,
	// when owners grows.
	owners []owner
	pub    atomic.Pointer[[]atomic.Uint64]
	seq    atomic.Uint64 // odd while the writer updates pub; see snapshot

	hits       atomic.Int64
	misses     atomic.Int64
	refreshes  atomic.Int64
	rebalances atomic.Int64
	refusals   atomic.Int64
	overflows  atomic.Int64
	unpinned   atomic.Int64
}

// NewTable builds a table whose capacity is shards × shardCap slots, rounded
// up to a power of two of at least one probe window, in one slab: the two
// factors survive from the sharded table this one replaced, and callers that
// care about the effective capacity (lvrmd's startup line) should report
// Cap() rather than their input. The slab is allocated at that capacity
// here, 8 bytes a slot.
func NewTable(shards, shardCap int) *Table {
	capSlots := ceilPow2(max(shards, 1)*max(shardCap, 1), probeWindow)
	t := &Table{
		pins:   make([]uint64, capSlots),
		mask:   uint64(capSlots - 1),
		owners: make([]owner, 8),
	}
	pub := make([]atomic.Uint64, len(t.owners))
	t.pub.Store(&pub)
	return t
}

// Assign resolves key to a VRI ID, consulting and updating the affinity
// table; it is AssignHits for a burst of one, plus everything a hit does not
// need. The time argument is not recorded — pins carry no timestamp, nothing
// ever read one — and stays in the signature for the callers that pass it.
// The callbacks run on the table's goroutine, in the middle of the call:
//
//   - keep(vri) is consulted only for a stale pin (a VRI was spawned or
//     destroyed since the pin was made or last refreshed). Return true to
//     keep the flow where it is — the caller knows moving it would reorder
//     in-flight frames — or false to release it for re-balancing.
//   - pick() chooses a VRI for a flow with no usable pin. It must return a
//     valid current VRI ID, or a negative value to refuse — the load-aware
//     admission hook: nothing is installed, any stale pin is deleted, and
//     Assign returns the negative value with Outcome Refused.
//
// A miss whose pick succeeds is pinned unless the key's window is full, in
// which case the pick is returned unpinned (Outcome Overflow) — established
// flows are never evicted to admit new ones.
func (t *Table) Assign(key uint64, _ int64, keep func(vri int) bool, pick func() int) (int, Outcome) {
	tag := key & tagMask
	i := t.find(tag)
	if i < 0 {
		// Miss: choose a VRI and install the pin.
		vri := pick()
		if vri < 0 {
			t.refusals.Add(1)
			return vri, Refused
		}
		if !t.insert(tag, vri) {
			t.overflows.Add(1)
			return vri, Overflow
		}
		t.misses.Add(1)
		return vri, Miss
	}
	p := t.pins[i]
	vri := int(t.owners[p&ownerMask].vri)
	if p&staleBit == 0 {
		t.hits.Add(1)
		return vri, Hit
	}
	// Stale pin: the VRI set changed since this flow was pinned.
	if keep(vri) {
		t.pins[i] = p &^ staleBit
		t.refreshes.Add(1)
		return vri, Refreshed
	}
	next := pick()
	if next < 0 {
		// The pin names a VRI the caller released and pick refused a
		// replacement: delete it, rather than re-run keep and pick for every
		// later frame of the flow against a possibly destroyed VRI.
		t.delete(i)
		t.unpinned.Add(1)
		t.refusals.Add(1)
		return next, Refused
	}
	if !t.repin(i, next) {
		t.unpinned.Add(1)
		t.overflows.Add(1)
		return next, Overflow
	}
	t.rebalances.Add(1)
	return next, Rebalanced
}

// MaxBurst is the most keys one AssignHits call takes.
const MaxBurst = 16

// AssignHits is Assign's hit branch for a burst of up to MaxBurst keys: ids[i]
// becomes the VRI keys[i] is pinned to when that pin is a clean hit (present
// and not stale), and -1 otherwise. The pass stops at the first key that is
// not a clean hit — a miss or a stale pin — and leaves it and every later key
// of the burst at -1, for the caller to resolve with Assign in burst order.
// It returns, and counts in Stats.Hits, the number of clean hits. The pass
// plus the caller's Assign calls leave the table exactly as per-key Assign
// calls in burst order would, as a clean hit changes nothing.
//
// A first pass loads every key's home slot — independent loads, so a burst
// whose pins are all out of cache waits for the slowest of its misses, not
// their sum — and a second pass finishes each probe on lines already on their
// way.
func (t *Table) AssignHits(keys []uint64, ids []int32) (hits int) {
	var first [MaxBurst]uint64
	for i, k := range keys {
		first[i] = t.pins[homeOf(k, t.mask)]
		ids[i] = -1
	}
	for i, k := range keys {
		tag := k & tagMask
		p := first[i]
		if p == 0 || p&tagMask != tag {
			// Not in its home slot: probe the rest of its run.
			j := t.find(tag)
			if j < 0 {
				break
			}
			p = t.pins[j]
		}
		if p&staleBit != 0 {
			break
		}
		ids[i] = t.owners[p&ownerMask].vri
		hits++
	}
	if hits > 0 {
		t.hits.Add(int64(hits))
	}
	return hits
}

// insert pins tag to vri. It reports false when the key's probe window is
// full (or, in a table whose 32 766 owner slots all hold pins, when vri has
// none).
func (t *Table) insert(tag uint64, vri int) bool {
	s := t.slotFor(vri)
	if s == 0 || !t.place(tag|uint64(s)) {
		return false
	}
	t.count(s, 1)
	return true
}

// repin moves the pin at i to vri and makes it fresh. Should vri need an
// owner slot and none be free, the pin is deleted instead and repin reports
// false.
func (t *Table) repin(i int, vri int) bool {
	p := t.pins[i]
	from := int(p & ownerMask)
	if t.owners[from].vri == int32(vri) {
		t.pins[i] = p &^ staleBit
		return true
	}
	s := t.slotFor(vri)
	if s == 0 {
		t.delete(i)
		return false
	}
	t.pins[i] = p&tagMask | uint64(s)
	t.owners[from].pins--
	t.owners[s].pins++
	pub := t.beginPublish()
	t.publish(pub, from)
	t.publish(pub, s)
	t.endPublish()
	return true
}

// delete removes the pin at i, shifting its run back.
func (t *Table) delete(i int) {
	s := int(t.pins[i] & ownerMask)
	t.remove(uint64(i))
	t.count(s, -1)
}

// slotFor returns vri's owner slot, giving it a free one if it has none, or 0
// when every slot holds pins of other VRIs.
func (t *Table) slotFor(vri int) int {
	free := 0
	for s := 1; s < len(t.owners); s++ {
		o := &t.owners[s]
		if o.pins == 0 {
			if free == 0 {
				free = s
			}
			continue
		}
		if o.vri == int32(vri) {
			return s
		}
	}
	if free == 0 {
		if len(t.owners) > maxOwner {
			return 0
		}
		free = len(t.owners)
		t.growOwners()
	}
	t.owners[free].vri = int32(vri)
	return free
}

// growOwners doubles the owner slots, up to maxOwner, and publishes a fresh
// mirror for the readers.
func (t *Table) growOwners() {
	owners := make([]owner, min(2*len(t.owners), maxOwner+1))
	copy(owners, t.owners)
	t.owners = owners
	pub := make([]atomic.Uint64, len(owners))
	t.beginPublish()
	for s := range *t.pub.Load() {
		t.publish(&pub, s)
	}
	t.pub.Store(&pub)
	t.endPublish()
}

// count adds d to slot s's pin count and publishes it.
func (t *Table) count(s, d int) {
	t.owners[s].pins += int32(d)
	t.publish(t.beginPublish(), s)
	t.endPublish()
}

// beginPublish and endPublish bracket every change to the published owner
// counts: seq is odd in between, and a reader whose snapshot saw seq move
// reads again.
func (t *Table) beginPublish() *[]atomic.Uint64 {
	t.seq.Add(1)
	return t.pub.Load()
}

func (t *Table) endPublish() { t.seq.Add(1) }

// snapshot calls read on the published owner counts until one call saw no
// update by the writer, and so saw counts the table actually held.
func (t *Table) snapshot(read func(pub []atomic.Uint64)) {
	for {
		if s := t.seq.Load(); s&1 == 0 {
			read(*t.pub.Load())
			if t.seq.Load() == s {
				return
			}
		}
		runtime.Gosched()
	}
}

func (t *Table) publish(pub *[]atomic.Uint64, s int) {
	o := t.owners[s]
	(*pub)[s].Store(uint64(uint32(o.vri))<<32 | uint64(uint32(o.pins)))
}

// Transfer is the partition-transfer primitive every bulk ownership handoff
// routes through: it sweeps the slab and, for each flow pinned to src, asks
// dst(key) who should own it next, passing the key as the table keeps it —
// with its low 16 bits zero. Return src to keep the pin untouched, a
// different non-negative VRI ID to re-pin the flow there (fresh, counted as a
// rebalance), or a negative value to delete the pin (counted in
// Stats.Unpinned; the flow re-enters through the miss path on its next
// frame). dst runs once per pin, on the table's goroutine — keep it cheap and
// deterministic. Transfer returns how many pins changed owner or were
// deleted. The core migration engine (internal/core/migrate.go) is its one
// caller outside tests.
func (t *Table) Transfer(src int, dst func(key uint64) int) int {
	from := 0
	for s := 1; s < len(t.owners); s++ {
		if o := t.owners[s]; o.pins > 0 && o.vri == int32(src) {
			from = s
			break
		}
	}
	if from == 0 {
		return 0
	}
	// The sweep counts in t.owners and publishes once, at the end.
	var moved, deleted int
	for i, p := range t.pins {
		if p == 0 || int(p&ownerMask) != from {
			continue
		}
		next := dst(p & tagMask)
		if next == src {
			continue
		}
		t.owners[from].pins--
		if next >= 0 {
			if s := t.slotFor(next); s != 0 {
				t.pins[i] = p&tagMask | uint64(s)
				t.owners[s].pins++
				moved++
				continue
			}
		}
		// A delete shifts later pins back, which this sweep would then visit
		// twice or not at all: mark the pin, and remove the marked pins in a
		// second pass.
		t.pins[i] = p&tagMask | doomed
		deleted++
	}
	for i := 0; deleted > 0 && i < len(t.pins); {
		if t.pins[i]&ownerMask == doomed {
			t.remove(uint64(i)) // may shift another marked pin into i
			continue
		}
		i++
	}
	pub := t.beginPublish()
	for s := range t.owners {
		t.publish(pub, s)
	}
	t.endPublish()
	t.rebalances.Add(int64(moved))
	t.unpinned.Add(int64(deleted))
	return moved + deleted
}

// PinOf reports which VRI key is currently pinned to, stale or not, without
// touching the pin or the outcome counters. The replica split uses it to
// route transplanted queue residue: after Transfer re-pins a slice of flows,
// each drained frame follows its flow's pin to the owning replica.
func (t *Table) PinOf(key uint64) (vri int, ok bool) {
	i := t.find(key & tagMask)
	if i < 0 {
		return 0, false
	}
	return int(t.owners[t.pins[i]&ownerMask].vri), true
}

// PartitionSizes counts the pinned flows each VRI currently owns. It reads
// the published owner counts: O(owner slots), no slab sweep.
func (t *Table) PartitionSizes() map[int]int {
	sizes := make(map[int]int)
	t.snapshot(func(pub []atomic.Uint64) {
		clear(sizes)
		for s := range pub {
			v := pub[s].Load()
			if n := int(uint32(v)); n > 0 {
				sizes[int(int32(v>>32))] += n
			}
		}
	})
	return sizes
}

// BumpEpoch marks every pin in the table stale. Called when a VRI is spawned
// or destroyed: existing flows re-validate lazily on their next frame. The
// pass is O(slots), and skipped while no owner slot holds a pin.
func (t *Table) BumpEpoch() {
	if !slices.ContainsFunc(t.owners, func(o owner) bool { return o.pins > 0 }) {
		return
	}
	for i, p := range t.pins {
		// (p | -p) >> 63 is 1 for any pin and 0 for an empty slot.
		t.pins[i] = p | (p|-p)>>63<<15
	}
}

// Stats returns the cumulative outcome counters.
func (t *Table) Stats() Stats {
	return Stats{
		Hits:       t.hits.Load(),
		Misses:     t.misses.Load(),
		Refreshes:  t.refreshes.Load(),
		Rebalances: t.rebalances.Load(),
		Refusals:   t.refusals.Load(),
		Overflows:  t.overflows.Load(),
		Unpinned:   t.unpinned.Load(),
	}
}

// Cap returns the effective capacity in slots — the slab's size, after
// NewTable's power-of-two and probe-window rounding. It can exceed the
// capacity passed to NewTable; operators sizing a deployment should trust
// this accessor over their own arithmetic.
func (t *Table) Cap() int { return len(t.pins) }

// Len returns the number of pinned flows, summed over the published owner
// counts.
func (t *Table) Len() int {
	total := 0
	t.snapshot(func(pub []atomic.Uint64) {
		total = 0
		for s := range pub {
			total += int(uint32(pub[s].Load()))
		}
	})
	return total
}

// ceilPow2 rounds n up to the next power of two, at least min.
func ceilPow2(n, min int) int {
	if n < min {
		n = min
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
