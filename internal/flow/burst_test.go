package flow

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// assigned is what one key of a stream resolved to.
type assigned struct {
	id  int
	out Outcome
}

// burstStream drives one table through a seeded stream of about total keys
// drawn (with repeats, also inside one chunk) from a fixed universe, chunk
// keys at a time, with the table-wide events the live monitor interleaves
// with dispatch: epoch bumps, and partition transfers that move, keep and
// delete pins, each about every `every` keys. keep and pick are functions of
// the key and the round alone — pick refuses one key in eleven — so two
// tables fed the same stream make the same decisions.
//
// vector selects how a chunk is resolved: AssignHits for the clean hits and
// then Assign for the flagged keys, in order — what core's dispatch loop
// does — or Assign for every key.
func burstStream(tb *Table, seed int64, universe, total, every, chunk int, vector bool) []assigned {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, universe)
	for i := range keys {
		keys[i] = mix64(uint64(i) + 1)
	}
	got := make([]assigned, 0, total+chunk)
	var buf [MaxBurst]uint64
	var ids [MaxBurst]int32
	for round := 0; len(got) < total; round++ {
		switch rng.Intn(every/chunk + 1) {
		case 0:
			tb.BumpEpoch()
		case 1:
			src, r := rng.Intn(4), round
			tb.Transfer(src, func(key uint64) int {
				switch (key >> 20) % 4 {
				case 0:
					return (src + 1 + r%3) % 4 // move
				case 1:
					return -1 // delete
				}
				return src // keep
			})
		}
		for i := 0; i < chunk; i++ {
			buf[i] = keys[rng.Intn(universe)]
		}
		for i := range ids {
			ids[i] = -1
		}
		if vector {
			tb.AssignHits(buf[:chunk], ids[:chunk])
		}
		for i, key := range buf[:chunk] {
			if ids[i] >= 0 {
				got = append(got, assigned{int(ids[i]), Hit})
				continue
			}
			keep := func(vri int) bool { return (key>>8)%2 == 0 }
			pick := func() int {
				if key%11 == 0 {
					return -1
				}
				return int((key + uint64(round)/64) % 4)
			}
			id, out := tb.Assign(key, int64(round), keep, pick)
			got = append(got, assigned{id, out})
		}
	}
	return got
}

// TestAssignHitsEquivalence is the vector pass's contract, stated for the
// table alone: resolving a chunk's clean hits ahead of the rest and the rest
// by Assign in order gives every key the id and the Outcome that per-key
// Assign gives it on a twin table, and leaves the same counters and the same
// occupancy — for a chunk of one, two, fifteen and a full sixteen, at four
// table sizes (the shards factor of NewTable only scales the capacity), on a
// table at its capacity with full windows (overflows) and on one whose pins
// grow under the stream to under a third of its slots.
func TestAssignHitsEquivalence(t *testing.T) {
	for _, shards := range []int{1, 8, 64, 128} {
		for _, chunk := range []int{1, 2, 15, 16} {
			for _, geo := range []struct {
				name               string
				shardCap, perShard int
			}{
				{"at-cap", probeWindow, 48},
				{"growing", 1024, 300},
			} {
				t.Run(fmt.Sprintf("shards-%d/chunk-%d/%s", shards, chunk, geo.name), func(t *testing.T) {
					universe := shards * geo.perShard
					total, every := max(6*universe, 6000), max(universe/2, 300)
					for seed := int64(1); seed <= 3; seed++ {
						vec, ref := NewTable(shards, geo.shardCap), NewTable(shards, geo.shardCap)
						got := burstStream(vec, seed, universe, total, every, chunk, true)
						want := burstStream(ref, seed, universe, total, every, chunk, false)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("seed %d: key %d of the stream resolved to %+v, per-key Assign gives %+v", seed, i, got[i], want[i])
							}
						}
						if g, w := vec.Stats(), ref.Stats(); g != w {
							t.Errorf("seed %d: stats %+v, per-key Assign leaves %+v", seed, g, w)
						}
						if g, w := vec.Len(), ref.Len(); g != w {
							t.Errorf("seed %d: len %d, per-key Assign leaves %d", seed, g, w)
						}
						// The stream must have been what the case is there for.
						st := ref.Stats()
						if st.Hits == 0 || st.Misses == 0 || st.Refreshes == 0 || st.Rebalances == 0 || st.Refusals == 0 || st.Unpinned == 0 {
							t.Errorf("seed %d: stream left an outcome unexercised: %+v", seed, st)
						}
						if geo.shardCap == probeWindow && st.Overflows == 0 {
							t.Errorf("seed %d: no overflow on a table at its cap: %+v", seed, st)
						}
					}
				})
			}
		}
	}
}

// readConcurrently starts two goroutines that read tb the way status and
// metrics scrapes do — Stats, Len and PartitionSizes, nothing that touches
// the slab — while the calling goroutine, the table's one writer, drives a
// stream. The readers fail t if what they see leaves the stream's bounds: at
// most maxLen pins, every partition nonempty and naming a VRI in [0, vris).
// The returned stop ends the readers and waits for them.
func readConcurrently(t *testing.T, tb *Table, maxLen, vris int) (stop func()) {
	var done atomic.Bool
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				st := tb.Stats()
				n := tb.Len()
				total := 0
				for vri, size := range tb.PartitionSizes() {
					if vri < 0 || vri >= vris || size <= 0 {
						t.Errorf("partition %d of size %d", vri, size)
						return
					}
					total += size
				}
				if n < 0 || n > maxLen || total > maxLen || st.Hits < 0 {
					t.Errorf("reader saw len %d, partitions summing to %d, stats %+v", n, total, st)
					return
				}
			}
		}()
	}
	return func() { done.Store(true); readers.Wait() }
}

// TestAssignHitsConcurrent is the table's concurrency contract for the
// vector pass: one goroutine runs the whole stream — bursts, per-key Assign,
// epoch bumps and transfers that move, keep and delete — while readers on
// other goroutines call Stats, Len and PartitionSizes throughout. Run under
// -race in CI. Every key is pinned to a VRI derived from the key, so every
// resolution must report that VRI, and what the readers see must stay
// within the stream's bounds.
func TestAssignHitsConcurrent(t *testing.T) {
	const universe, rounds = 2000, 6000
	tb := NewTable(8, 1024)
	keys := make([]uint64, universe)
	for i := range keys {
		keys[i] = mix64(uint64(i) + 1)
	}
	owner := func(key uint64) int { return int(key>>40) % 5 }
	stop := readConcurrently(t, tb, universe, 5)
	rng := rand.New(rand.NewSource(1))
	var buf [MaxBurst]uint64
	var ids [MaxBurst]int32
	for r := 0; r < rounds; r++ {
		for i := range buf {
			buf[i] = keys[rng.Intn(universe)]
		}
		tb.AssignHits(buf[:], ids[:])
		for i, key := range buf {
			id := int(ids[i])
			if id < 0 {
				id, _ = tb.Assign(key, 0, keepAlways, func() int { return owner(key) })
			}
			if id != owner(key) {
				t.Fatalf("key %#x resolved to VRI %d, want %d", key, id, owner(key))
			}
		}
		switch r % 512 {
		case 0:
			tb.BumpEpoch()
		case 1:
			tb.Transfer(r%5, func(key uint64) int { return owner(key) }) // keeps every pin
		case 2:
			tb.Transfer(r%5, func(uint64) int { return -1 }) // deletes a partition
		}
	}
	stop()
	samePartitions(t, tb, "after the stream")
	if got := tb.Len(); got > universe {
		t.Errorf("len %d with %d distinct keys", got, universe)
	}
}

// benchPinned builds the table of the two benchmarks below — the wall-clock
// benchmark's flow-fib geometry, NewTable(8, 1<<15): 1<<18 slots holding
// 100 000 pins — and returns it with the pinned keys in a shuffled order.
func benchPinned(b *testing.B) (*Table, []uint64) {
	b.Helper()
	const flows = 100000
	tb := NewTable(8, (1<<18)/8)
	keys := make([]uint64, 0, flows)
	for i := 0; i < flows; i++ {
		key := mix64(uint64(i) + 1)
		if _, out := tb.Assign(key, 0, keepAlways, pickConst(i%4)); out == Miss {
			keys = append(keys, key)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return tb, keys
}

// pollution stands in for the rest of the pipeline between two table probes.
// A bare loop of Assign calls over 100 000 pins measures a probe no frame
// gets. Nothing else uses the cache, whereas in the monitor frames, pool and
// FIB push a flow's slot out of the core's own cache levels before its next
// frame arrives: spoil streams through a buffer much larger than those, two
// lines per key. And nothing separates one probe from the next, whereas the
// monitor ran some eight locked instructions per frame (counters, the
// estimator's mutex, the ring's CAS), each of which waits for the loads
// before it, so that every frame paid its miss in full: spoil does an atomic
// add per line.
type pollution struct {
	buf    []uint64
	at     int
	sum    uint64
	locked atomic.Int64
}

func newPollution() *pollution { return &pollution{buf: make([]uint64, 64<<20/8)} }

func (p *pollution) spoil(lines int) {
	for i := 0; i < lines; i++ {
		p.sum += p.buf[p.at]
		p.locked.Add(1)
		if p.at += 8; p.at >= len(p.buf) {
			p.at = 0
		}
	}
}

// BenchmarkAssignScalar resolves pinned keys one Assign at a time with two
// spoiled lines between probes; ns/op is per key, spoiling included, as in
// BenchmarkAssignBurst.
func BenchmarkAssignScalar(b *testing.B) {
	tb, keys := benchPinned(b)
	p := newPollution()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out := tb.Assign(keys[i%len(keys)], 0, keepAlways, pickConst(0)); out != Hit {
			b.Fatal(out)
		}
		p.spoil(2)
	}
}

// BenchmarkAssignBurst resolves the same keys sixteen to an AssignHits call,
// with the same spoiling per key done between bursts.
func BenchmarkAssignBurst(b *testing.B) {
	tb, keys := benchPinned(b)
	p := newPollution()
	var ids [MaxBurst]int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += MaxBurst {
		at := i % (len(keys) - MaxBurst)
		if hits := tb.AssignHits(keys[at:at+MaxBurst], ids[:]); hits != MaxBurst {
			b.Fatalf("%d hits", hits)
		}
		p.spoil(2 * MaxBurst)
	}
}

// BenchmarkInstall100k installs 100 000 new flows into a fresh table of the
// flow-fib geometry, the first pass of flow-fib's setup: every Assign a miss.
// ns/op is per install.
func BenchmarkInstall100k(b *testing.B) {
	const flows = 100_000
	keys := make([]uint64, flows)
	for i := range keys {
		keys[i] = mix64(uint64(i) + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += flows {
		tb := NewTable(8, 1<<15)
		for i, k := range keys[:min(flows, b.N-done)] {
			tb.Assign(k, 0, keepAlways, pickConst(i%4))
		}
	}
}

// BenchmarkBumpEpoch is one spawn's or destroy's epoch bump on a table of the
// flow-fib geometry holding 100 000 pins (1<<18 slots).
func BenchmarkBumpEpoch(b *testing.B) {
	tb, _ := benchPinned(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.BumpEpoch()
	}
}
