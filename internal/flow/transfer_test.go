package flow

import (
	"fmt"
	"testing"
)

// Transfer is the partition-transfer primitive every bulk hand-off routes
// through; these tests pin down its contract directly: src selection, the
// three dst outcomes (keep, re-pin, delete), and the counter semantics the
// migration engine's conservation sums are written against.

// evict and movePartition are the two shapes of Transfer the older tests were
// written against: a teardown sweep, where repick chooses a survivor per pin
// and a negative answer (or vri itself) deletes the pin, and a split, which
// re-pins to dst the flows shouldMove selects.
func evict(tb *Table, vri int, repick func() int) int {
	return tb.Transfer(vri, func(uint64) int {
		if next := repick(); next != vri {
			return next
		}
		return -1
	})
}

func movePartition(tb *Table, src, dst int, shouldMove func(key uint64) bool) int {
	return tb.Transfer(src, func(key uint64) int {
		if shouldMove(key) {
			return dst
		}
		return src
	})
}

func TestTransferRoutesPerKey(t *testing.T) {
	tb := NewTable(4, 256)
	// Tags 1..30 pinned to VRI 1, 101..110 to VRI 2.
	for k := uint64(1); k <= 30; k++ {
		tb.Assign(tagKey(k), 1, keepAlways, pickConst(1))
	}
	for k := uint64(101); k <= 110; k++ {
		tb.Assign(tagKey(k), 1, keepAlways, pickConst(2))
	}

	// Route src=1 flows three ways: multiples of 3 stay, multiples of 3 plus
	// one re-pin to VRI 7, the rest unpin. VRI 2's partition must be
	// untouched — dst must never even be consulted for it.
	changed := tb.Transfer(1, func(key uint64) int {
		if key&0xffff != 0 {
			t.Errorf("dst got key %#x, want its low 16 bits zero", key)
		}
		if key>>16 > 100 {
			t.Errorf("dst consulted for tag %d, which is pinned to VRI 2", key>>16)
		}
		switch (key >> 16) % 3 {
		case 0:
			return 1
		case 1:
			return 7
		default:
			return -1
		}
	})
	kept, repinned, deleted := 0, 0, 0
	for k := uint64(1); k <= 30; k++ {
		pin, ok := tb.PinOf(tagKey(k))
		switch k % 3 {
		case 0:
			if !ok || pin != 1 {
				t.Fatalf("key %d = %d,%v, want kept on 1", k, pin, ok)
			}
			kept++
		case 1:
			if !ok || pin != 7 {
				t.Fatalf("key %d = %d,%v, want re-pinned to 7", k, pin, ok)
			}
			repinned++
		default:
			if ok {
				t.Fatalf("key %d = %d, want deleted", k, pin)
			}
			deleted++
		}
	}
	if changed != repinned+deleted {
		t.Fatalf("Transfer = %d, want repinned+deleted = %d", changed, repinned+deleted)
	}
	for k := uint64(101); k <= 110; k++ {
		if pin, ok := tb.PinOf(tagKey(k)); !ok || pin != 2 {
			t.Fatalf("VRI 2's key %d = %d,%v, want untouched", k, pin, ok)
		}
	}
	st := tb.Stats()
	if st.Rebalances != int64(repinned) {
		t.Errorf("rebalances = %d, want %d (one per re-pin)", st.Rebalances, repinned)
	}
	if st.Unpinned != int64(deleted) {
		t.Errorf("unpinned = %d, want %d (one per delete)", st.Unpinned, deleted)
	}
	if want := kept + repinned + 10; tb.Len() != want { // +10: VRI 2's partition
		t.Errorf("len = %d, want %d", tb.Len(), want)
	}
}

func TestTransferRepinSurvivesEpochBump(t *testing.T) {
	tb := NewTable(1, 64)
	tb.Assign(5, 1, keepAlways, pickConst(1))
	tb.BumpEpoch() // the pin is now stale
	if n := tb.Transfer(1, func(uint64) int { return 4 }); n != 1 {
		t.Fatalf("Transfer = %d, want 1", n)
	}
	// The transfer stamped the current epoch: the next Assign must be a
	// clean hit on VRI 4, not a stale-pin refresh or rebalance.
	vri, out := tb.Assign(5, 3, keepAlways, pickConst(9))
	if vri != 4 || out != Hit {
		t.Fatalf("post-transfer assign = %d,%v, want 4,hit", vri, out)
	}
}

func TestPartitionSizes(t *testing.T) {
	tb := NewTable(4, 256)
	for k := uint64(1); k <= 9; k++ {
		tb.Assign(tagKey(k), 1, keepAlways, pickConst(int(k%3))) // 3 each on VRIs 0,1,2
	}
	sizes := tb.PartitionSizes()
	for vri := 0; vri < 3; vri++ {
		if sizes[vri] != 3 {
			t.Errorf("partition[%d] = %d, want 3", vri, sizes[vri])
		}
	}
	tb.Transfer(2, func(uint64) int { return 0 })
	sizes = tb.PartitionSizes()
	if sizes[0] != 6 || sizes[2] != 0 {
		t.Errorf("after merge partitions = %v, want 6 on 0, none on 2", sizes)
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total != tb.Len() {
		t.Errorf("partition sizes sum to %d, Len = %d", total, tb.Len())
	}
}

// mix64 is SplitMix64's finalizer: bench keys must look like KeyOf output
// (well-spread hashes), not sequential integers, which would share one tag
// and so one pin.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// benchTable builds a table pre-pinned with n flows spread over nVRIs, sized
// like the production config scaled to the flow count.
func benchTable(b *testing.B, n, nVRIs int) *Table {
	b.Helper()
	tb := NewTable(64, 2*n/64)
	for k := 1; k <= n; k++ {
		tb.Assign(mix64(uint64(k)), 1, keepAlways, pickConst(k%nVRIs))
	}
	if got := tb.Len(); got < n*99/100 {
		b.Fatalf("seeded %d flows, table holds %d", n, got)
	}
	return tb
}

// BenchmarkMovePartition measures the split sweep: one pass over the whole
// table re-pinning every other flow of one VRI's partition. The sweep is
// O(table slots) regardless of the partition's size — the number that
// matters is the pause a split imposes at 100k and 1M pinned flows.
func BenchmarkMovePartition(b *testing.B) {
	for _, size := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			tb := benchTable(b, size, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick := 0
				src, dst := i%2, (i+1)%2
				movePartition(tb, src, dst, func(uint64) bool {
					tick++
					return tick&1 == 1
				})
			}
		})
	}
}

// BenchmarkTransferMerge is the fold/move shape: the whole partition of one
// VRI re-pins to a single destination in one sweep.
func BenchmarkTransferMerge(b *testing.B) {
	for _, size := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			tb := benchTable(b, size, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, dst := i%2, (i+1)%2
				tb.Transfer(src, func(uint64) int { return dst })
			}
		})
	}
}
