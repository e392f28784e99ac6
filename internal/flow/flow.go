// Package flow implements flow classification and the sharded flow-affinity
// table that lets LVRM dispatch frames to VRIs without a per-VR mutex.
//
// A flow is a 64-bit key (see KeyOf): the 5-tuple hash for decodable frames,
// a bytes+length hash otherwise. The Table remembers which VRI each flow was
// assigned to, so every frame of a flow lands on the same VRI queue and
// per-flow ordering is preserved — the property the paper's flow-based
// balancer provides with a single shared map, reproduced here without the
// global lock.
//
// Concurrency model: the table is split into N independent shards, each
// guarded by its own mutex. One goroutine dispatches — in LVRM, the monitor —
// and the locks order it against the readers on other goroutines: status and
// metrics scrapes, which sweep the shards one at a time. The common case
// (table hit) is one short critical section over a few slab slots.
//
// Storage model: each shard owns one flat slab of fixed-size entries (no
// pointers, one allocation), probed linearly over a bounded window. The slab
// starts small and doubles under load up to the configured per-shard cap,
// with the old slab migrated into the new one incrementally — a bounded
// number of slots per table operation — so no single frame ever pays a
// full-table rehash. Growth replaces the old design's stalest-entry eviction:
// a pinned flow is never sacrificed to make room for a new one. When a shard
// is at its cap and the new key's probe window is full, the *new* flow is the
// one turned away (Outcome Overflow): it is dispatched without a pin and
// counted, preserving affinity for everything already established.
//
// VRI lifecycle is handled with epochs, not synchronization: spawning or
// destroying a VRI bumps every shard's epoch, marking all pins stale at once.
// A stale pin is not discarded — on its next frame the caller's keep callback
// decides whether moving the flow is safe (see Table.Assign), so teardown
// never blocks the data path and affinity survives epochs whenever possible.
package flow

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// probeWindow is how many slots past the home slot a key may land. It bounds
// both lookup cost and the clustering a slab tolerates before growing.
const probeWindow = 16

// MinShardCap is the smallest per-shard slot capacity NewTable accepts: one
// full probe window. Requests below it are rounded up (and logged by callers
// that surface effective geometry, e.g. lvrmd's -flow-table startup line).
const MinShardCap = probeWindow

// initialShardSlots is the slab size a shard starts with; it doubles on
// demand up to the shard's cap. Kept small so a table configured for
// millions of flows costs almost nothing until the flows actually arrive.
const initialShardSlots = 64

// migrateStep is how many old-slab slots one table operation carries across
// during an incremental resize. The step amortizes a shard's migration over
// ~slots/migrateStep operations while keeping each operation's worst case
// bounded.
const migrateStep = 64

// Outcome says how Assign resolved a key against the table.
type Outcome int

const (
	// Hit: the key was pinned in the current epoch; the pin was returned.
	Hit Outcome = iota
	// Refreshed: the pin predated the current epoch but the keep callback
	// ruled moving unsafe (or unnecessary); the pin was kept in the new epoch.
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
	// Overflow: pick chose a VRI but the shard is at its capacity with the
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

// entry is one pinned flow. Entries live in flat per-shard slabs — no
// pointers, so a million-entry table adds nothing to GC scan work, extending
// the frame pool's zero-pressure discipline to the flow layer.
//
// An entry is 16 bytes, four to a cache line, so a probe window spans four
// lines and a hit writes nothing: the only per-pin state besides the owner is
// the epoch the pin was made in, 32 bits wide like the shard's counter (a pin
// would have to sit untouched through exactly 2^32 VRI spawns and destroys
// to be mistaken for a fresh one).
type entry struct {
	key   uint64 // 0 = empty slot (KeyOf never returns 0)
	epoch uint32 // shard epoch the pin was made in
	vri   int32
}

// slab is one open-addressing table: a power-of-two entry array probed
// linearly over probeWindow slots from the key's home.
type slab struct {
	entries []entry
	mask    uint64
}

func newSlab(slots int) slab {
	return slab{entries: make([]entry, slots), mask: uint64(slots - 1)}
}

// find returns the entry holding key, or nil.
func (b *slab) find(key uint64) *entry {
	if b.entries == nil {
		return nil
	}
	home := (key >> 32) & b.mask
	for i := uint64(0); i < probeWindow; i++ {
		e := &b.entries[(home+i)&b.mask]
		if e.key == key {
			return e
		}
	}
	return nil
}

// place writes ent into the first free slot of its probe window, reporting
// whether a slot was available.
func (b *slab) place(ent entry) bool {
	home := (ent.key >> 32) & b.mask
	for i := uint64(0); i < probeWindow; i++ {
		e := &b.entries[(home+i)&b.mask]
		if e.key == 0 {
			*e = ent
			return true
		}
	}
	return false
}

// fresh reports whether e is a clean hit: a pin (e may be nil) made in the
// given shard epoch, which Assign and AssignHits both return as it stands.
func (e *entry) fresh(epoch uint32) bool { return e != nil && e.epoch == epoch }

// shard is one independent slice of the table. All slab state is guarded by
// mu. The pad keeps hot shards off each other's cache lines.
type shard struct {
	mu    sync.Mutex
	epoch atomic.Uint32 // bumped lock-free by BumpEpoch, read under mu

	cur        slab // live slab; inserts land here
	old        slab // pre-resize slab being migrated; entries == nil when idle
	migratePos int  // next old slot to carry across
	n          int  // occupied slots across cur and old
	maxSlots   int  // cur never grows past this

	// Per-shard accounting, read by the Shard* accessors under mu.
	evictions int64 // pins lost to a probe-window collision during migration
	resizes   int64

	_ [64]byte
}

// Stats is a point-in-time snapshot of the table's outcome counters.
type Stats struct {
	Hits       int64
	Misses     int64 // dispatches that installed a new pin
	Refreshes  int64
	Rebalances int64 // stale pins actually re-installed on a new VRI
	Refusals   int64 // pick declined; nothing was installed
	Overflows  int64 // new flows turned away by a full shard at capacity
	Evictions  int64 // pins lost to migration probe collisions (≈0 in practice)
	Unpinned   int64 // pins deleted (teardown sweep, or stale pin with refused repick)
	Resizes    int64 // shard slab doublings
}

// Table is the sharded flow-affinity map. All methods are safe for
// concurrent use.
type Table struct {
	shards    []shard
	shardMask uint64

	hits       atomic.Int64
	misses     atomic.Int64
	refreshes  atomic.Int64
	rebalances atomic.Int64
	refusals   atomic.Int64
	overflows  atomic.Int64
	evictions  atomic.Int64
	unpinned   atomic.Int64
	resizes    atomic.Int64
}

// NewTable builds a table with the given shard count and per-shard slot
// capacity, both rounded up to powers of two. shardCap below MinShardCap is
// raised to it — the probe window needs at least one window of slots — so the
// effective capacity can exceed the request; callers that care (lvrmd's
// startup log) should report ShardCap() rather than their input. Shards
// start at initialShardSlots and grow toward shardCap on demand.
func NewTable(shards, shardCap int) *Table {
	ns := ceilPow2(shards, 1)
	nc := ceilPow2(shardCap, MinShardCap)
	t := &Table{
		shards:    make([]shard, ns),
		shardMask: uint64(ns - 1),
	}
	first := initialShardSlots
	if first > nc {
		first = nc
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.maxSlots = nc
		s.cur = newSlab(first)
	}
	return t
}

// Assign resolves key to a VRI ID, consulting and updating the affinity
// table; it is AssignHits for a burst of one, plus everything a hit does not
// need. The time argument is not recorded — pins carry no timestamp, nothing
// ever read one — and stays in the signature for the callers that pass it.
// The callbacks run while the key's shard lock is held, which serializes
// concurrent decisions about the same flow (and its shard neighbours) — keep
// them cheap:
//
//   - keep(vri) is consulted only for a stale pin (the shard epoch moved
//     since the pin was made). Return true to keep the flow where it is —
//     the caller knows moving it would reorder in-flight frames — or false
//     to release it for re-balancing.
//   - pick() chooses a VRI for a flow with no usable pin. It must return a
//     valid current VRI ID, or a negative value to refuse — the load-aware
//     admission hook: nothing is installed, any stale pin is deleted, and
//     Assign returns the negative value with Outcome Refused.
//
// A miss whose pick succeeds is pinned unless the shard is at capacity with
// the key's window full, in which case the pick is returned unpinned
// (Outcome Overflow) — established flows are never evicted to admit new ones.
func (t *Table) Assign(key uint64, _ int64, keep func(vri int) bool, pick func() int) (int, Outcome) {
	s := &t.shards[key&t.shardMask]
	s.mu.Lock()
	s.advanceMigration(t, migrateStep)
	epoch := s.epoch.Load()

	e := s.find(key)
	if e.fresh(epoch) {
		vri := int(e.vri)
		s.mu.Unlock()
		t.hits.Add(1)
		return vri, Hit
	}
	if e != nil {
		// Stale pin: the VRI set changed since this flow was pinned.
		vri := int(e.vri)
		if keep(vri) {
			e.epoch = epoch
			s.mu.Unlock()
			t.refreshes.Add(1)
			return vri, Refreshed
		}
		next := pick()
		if next < 0 {
			// The pin points at a VRI the caller released and pick refused a
			// replacement: delete it. Leaving it would re-run keep/pick under
			// the shard lock for every later frame of the flow against a
			// possibly-destroyed VRI (the pre-rebuild stale-pin leak).
			*e = entry{}
			s.n--
			s.mu.Unlock()
			t.unpinned.Add(1)
			t.refusals.Add(1)
			return next, Refused
		}
		e.vri = int32(next)
		e.epoch = epoch
		s.mu.Unlock()
		t.rebalances.Add(1)
		return next, Rebalanced
	}

	// Miss: choose a VRI and install the pin.
	vri := pick()
	if vri < 0 {
		s.mu.Unlock()
		t.refusals.Add(1)
		return vri, Refused
	}
	if !s.insert(t, entry{key: key, epoch: epoch, vri: int32(vri)}) {
		s.mu.Unlock()
		t.overflows.Add(1)
		return vri, Overflow
	}
	s.mu.Unlock()
	t.misses.Add(1)
	return vri, Miss
}

// MaxBurst is the most keys one AssignHits call takes.
const MaxBurst = 16

// AssignHits is Assign's hit branch for a burst of up to MaxBurst keys: ids[i]
// becomes the VRI keys[i] is pinned to when that pin is a clean hit (made in
// the shard's current epoch), and -1 otherwise — a miss or a stale pin, which
// the caller resolves with Assign, in burst order. It returns, and counts in
// Stats.Hits, the number of clean hits. Pass plus the caller's Assign calls
// leave the table exactly as per-key Assign calls in burst order would.
//
// Resolving a clean hit runs no callback and changes nothing in the table
// beyond its step of an incremental migration, so the hits of a burst can be
// resolved ahead of the keys that are not; those do have side effects (pick
// reads queue depths, an insert can grow the shard) and keep their place in
// the sequence. Within one shard the pass stops at the first key it cannot
// resolve and leaves the shard's later keys to Assign as well, so that every
// Assign finds the shard's migration exactly as many steps along as it would
// have been.
//
// Every distinct shard of the burst is locked once, in ascending index order:
// all other lockers hold one shard at a time and concurrent AssignHits calls
// climb in the same direction, so no cycle can form, whatever the shard
// count. With the locks held, a first pass loads every key's home slot —
// independent loads, so a burst whose pins are all out of cache waits for the
// slowest of its misses, not their sum — and a second pass finishes each
// probe on lines already on their way.
func (t *Table) AssignHits(keys []uint64, ids []int32) (hits int) {
	var order [MaxBurst]uint32 // the burst's distinct shards, ascending
	n := 0
	if len(t.shards) <= 64 {
		// The usual case, without a data-dependent branch: a set bit per
		// shard, read back lowest first.
		var set uint64
		for _, k := range keys {
			set |= 1 << (k & t.shardMask)
		}
		for ; set != 0; set &= set - 1 {
			order[n] = uint32(bits.TrailingZeros64(set))
			n++
		}
	} else {
		for _, k := range keys {
			sh := uint32(k & t.shardMask)
			i := 0
			for i < n && order[i] < sh {
				i++
			}
			if i < n && order[i] == sh {
				continue
			}
			copy(order[i+1:n+1], order[i:n])
			order[i] = sh
			n++
		}
	}
	for _, sh := range order[:n] {
		t.shards[sh].mu.Lock()
	}
	var (
		home  [MaxBurst]*entry
		first [MaxBurst]uint64
	)
	for i, k := range keys {
		b := &t.shards[k&t.shardMask].cur
		home[i] = &b.entries[(k>>32)&b.mask]
		first[i] = home[i].key
	}
	// left marks the shards whose remaining keys are left to Assign, one bit
	// per shard index mod 64: two shards sharing a bit only send a few more
	// keys the scalar way.
	var left uint64
	for i, k := range keys {
		ids[i] = -1
		sh := k & t.shardMask
		if left&(1<<(sh&63)) != 0 {
			continue
		}
		s := &t.shards[sh]
		e := home[i]
		if first[i] != k {
			// Not in its home slot (or carried there since the first pass,
			// which find then sees).
			e = s.find(k)
		}
		if !e.fresh(s.epoch.Load()) {
			left |= 1 << (sh & 63)
			continue
		}
		ids[i] = e.vri
		hits++
		// The step Assign takes before its probe; after it here, as the
		// step may be the one that carries e out of the old slab.
		s.advanceMigration(t, migrateStep)
	}
	for _, sh := range order[:n] {
		t.shards[sh].mu.Unlock()
	}
	t.hits.Add(int64(hits))
	return hits
}

// insert places ent, growing the slab as needed. It reports false only when
// the shard is at maxSlots with the key's probe window full. Caller holds
// s.mu.
func (s *shard) insert(t *Table, ent entry) bool {
	// Grow ahead of the load-factor wall (¾ of the live slab) so windows
	// rarely fill in the first place. Mid-migration the shard is already
	// growing, and cur is at most half-loaded by construction.
	if s.old.entries == nil && s.n*4 >= len(s.cur.entries)*3 {
		s.grow(t)
	}
	for {
		if s.cur.place(ent) {
			s.n++
			return true
		}
		// Window full. Finish any in-flight migration (it cannot help — it
		// only adds entries to cur — but grow needs old empty), then double.
		s.advanceMigration(t, len(s.old.entries))
		if !s.grow(t) {
			return false
		}
	}
}

// grow starts an incremental resize to a slab twice the current size,
// reporting false at maxSlots. Caller holds s.mu and must have completed any
// previous migration.
func (s *shard) grow(t *Table) bool {
	cur := len(s.cur.entries)
	if cur >= s.maxSlots || s.old.entries != nil {
		return false
	}
	s.old = s.cur
	s.cur = newSlab(cur * 2)
	s.migratePos = 0
	s.resizes++
	t.resizes.Add(1)
	return true
}

// advanceMigration carries up to step old-slab slots into the live slab.
// Entries keep their key/vri/epoch; an entry whose probe window in the
// (larger, at most half-loaded) new slab is somehow full is dropped and
// counted as an eviction — vanishingly rare, but accounted rather than
// silently leaked. Caller holds s.mu.
func (s *shard) advanceMigration(t *Table, step int) {
	if s.old.entries == nil {
		return
	}
	for step > 0 && s.migratePos < len(s.old.entries) {
		e := &s.old.entries[s.migratePos]
		s.migratePos++
		step--
		if e.key == 0 {
			continue
		}
		if !s.cur.place(*e) {
			s.n--
			s.evictions++
			t.evictions.Add(1)
		}
		*e = entry{}
	}
	if s.migratePos >= len(s.old.entries) {
		s.old = slab{}
		s.migratePos = 0
	}
}

// find returns key's entry — in the live slab, or in the one still being
// migrated out of — or nil. Caller holds s.mu.
func (s *shard) find(key uint64) *entry {
	if e := s.cur.find(key); e != nil {
		return e
	}
	return s.old.find(key)
}

// Transfer is the partition-transfer primitive every bulk ownership handoff
// routes through: it sweeps every shard and, for each flow pinned to src,
// asks dst(key) who should own it next. Return src to keep the pin untouched,
// a different non-negative VRI ID to re-pin the flow there (in the shard's
// current epoch, counted as a rebalance), or a negative value to delete the
// pin (counted in Stats.Unpinned; the flow re-enters through the miss path on
// its next frame). dst runs under the shard lock — keep it cheap and
// deterministic. Transfer returns how many pins changed owner or were
// deleted. The core migration engine (internal/core/migrate.go) is its one
// caller outside tests.
func (t *Table) Transfer(src int, dst func(key uint64) int) int {
	changed := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		epoch := s.epoch.Load()
		for _, b := range []*slab{&s.cur, &s.old} {
			for idx := range b.entries {
				e := &b.entries[idx]
				if e.key == 0 || int(e.vri) != src {
					continue
				}
				next := dst(e.key)
				if next == src {
					continue
				}
				changed++
				if next >= 0 {
					e.vri = int32(next)
					e.epoch = epoch
					t.rebalances.Add(1)
					continue
				}
				*e = entry{}
				s.n--
				t.unpinned.Add(1)
			}
		}
		s.mu.Unlock()
	}
	return changed
}

// PinOf reports which VRI key is currently pinned to, without touching
// epochs or outcome counters. The replica split uses it to route
// transplanted queue residue: after Transfer re-pins a slice of flows, each
// drained frame follows its flow's pin to the owning replica.
func (t *Table) PinOf(key uint64) (vri int, ok bool) {
	s := &t.shards[key&t.shardMask]
	s.mu.Lock()
	e := s.find(key)
	if e == nil {
		s.mu.Unlock()
		return 0, false
	}
	vri = int(e.vri)
	s.mu.Unlock()
	return vri, true
}

// PartitionSizes counts the pinned flows each VRI currently owns, in one
// sweep over every shard. It is a status-page read, not a hot-path one:
// O(table slots) under the shard locks, like Transfer.
func (t *Table) PartitionSizes() map[int]int {
	sizes := make(map[int]int)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, b := range []*slab{&s.cur, &s.old} {
			for idx := range b.entries {
				if e := &b.entries[idx]; e.key != 0 {
					sizes[int(e.vri)]++
				}
			}
		}
		s.mu.Unlock()
	}
	return sizes
}

// BumpEpoch marks every pin in the table stale. Called when a VRI is spawned
// or destroyed: existing flows re-validate lazily on their next frame instead
// of the lifecycle event sweeping the table.
func (t *Table) BumpEpoch() {
	for i := range t.shards {
		t.shards[i].epoch.Add(1)
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
		Evictions:  t.evictions.Load(),
		Unpinned:   t.unpinned.Load(),
		Resizes:    t.resizes.Load(),
	}
}

// Shards returns the shard count.
func (t *Table) Shards() int { return len(t.shards) }

// ShardCap returns the effective per-shard slot capacity — the bound a shard
// can grow to, after NewTable's power-of-two and MinShardCap rounding. It can
// exceed the shardCap passed to NewTable; operators sizing a deployment
// should trust this accessor over their own arithmetic.
func (t *Table) ShardCap() int { return t.shards[0].maxSlots }

// ShardSlots returns how many slots shard i has currently allocated — the
// live slab size, between initialShardSlots and ShardCap as the shard grows.
func (t *Table) ShardSlots(i int) int {
	s := &t.shards[i]
	s.mu.Lock()
	slots := len(s.cur.entries)
	s.mu.Unlock()
	return slots
}

// ShardOccupancy returns how many flows shard i currently pins.
func (t *Table) ShardOccupancy(i int) int {
	s := &t.shards[i]
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	return n
}

// ShardEvictions returns how many pins shard i has lost to migration probe
// collisions.
func (t *Table) ShardEvictions(i int) int64 {
	s := &t.shards[i]
	s.mu.Lock()
	ev := s.evictions
	s.mu.Unlock()
	return ev
}

// Len returns the total number of pinned flows across all shards.
func (t *Table) Len() int {
	total := 0
	for i := range t.shards {
		total += t.ShardOccupancy(i)
	}
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
