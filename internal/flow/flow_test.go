package flow

import (
	"sync"
	"sync/atomic"
	"testing"

	"lvrm/internal/packet"
)

// keepAlways / keepNever / pickConst are the trivial callback shapes most
// table tests need.
func keepAlways(int) bool { return true }
func keepNever(int) bool  { return false }
func pickConst(v int) func() int {
	return func() int { return v }
}

func TestAssignMissThenHit(t *testing.T) {
	tb := NewTable(4, 64)
	vri, out := tb.Assign(42, 1, keepAlways, pickConst(3))
	if vri != 3 || out != Miss {
		t.Fatalf("first assign = %d,%v, want 3,miss", vri, out)
	}
	vri, out = tb.Assign(42, 2, keepAlways, pickConst(9))
	if vri != 3 || out != Hit {
		t.Fatalf("second assign = %d,%v, want 3,hit (pick must not run)", vri, out)
	}
	st := tb.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d, want 1", tb.Len())
	}
}

func TestEpochRefreshAndRebalance(t *testing.T) {
	tb := NewTable(1, 64)
	tb.Assign(7, 1, keepAlways, pickConst(1))

	// Stale pin + keep=true: the flow stays put and the pin is refreshed.
	tb.BumpEpoch()
	vri, out := tb.Assign(7, 2, keepAlways, pickConst(2))
	if vri != 1 || out != Refreshed {
		t.Fatalf("after bump with keep = %d,%v, want 1,refreshed", vri, out)
	}
	// The refresh re-pinned in the current epoch: next lookup is a plain hit.
	if vri, out = tb.Assign(7, 3, keepNever, pickConst(2)); vri != 1 || out != Hit {
		t.Fatalf("post-refresh assign = %d,%v, want 1,hit", vri, out)
	}

	// Stale pin + keep=false: the flow is re-balanced onto pick's choice.
	tb.BumpEpoch()
	if vri, out = tb.Assign(7, 4, keepNever, pickConst(2)); vri != 2 || out != Rebalanced {
		t.Fatalf("after bump without keep = %d,%v, want 2,rebalanced", vri, out)
	}
	st := tb.Stats()
	if st.Refreshes != 1 || st.Rebalances != 1 {
		t.Fatalf("stats = %+v, want 1 refresh 1 rebalance", st)
	}
}

func TestPickRefusal(t *testing.T) {
	tb := NewTable(1, 64)
	vri, out := tb.Assign(5, 1, keepAlways, pickConst(-1))
	if vri != -1 || out != Refused {
		t.Fatalf("refused assign = %d,%v, want -1,refused", vri, out)
	}
	if tb.Len() != 0 {
		t.Fatalf("refused pick installed an entry: len = %d", tb.Len())
	}
	st := tb.Stats()
	if st.Refusals != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 refusal 0 misses", st)
	}
}

// TestRefusedRebalanceDeletesStalePin is the regression test for the
// stale-pin leak: a stale pin whose keep released it and whose pick refused a
// replacement used to stay installed, pointing at a possibly-destroyed VRI
// and re-running keep/pick under the shard lock on every later frame. It must
// be deleted and counted in Unpinned instead.
func TestRefusedRebalanceDeletesStalePin(t *testing.T) {
	tb := NewTable(1, 64)
	tb.Assign(5, 1, keepAlways, pickConst(4))
	tb.BumpEpoch()
	vri, out := tb.Assign(5, 2, keepNever, pickConst(-1))
	if vri != -1 || out != Refused {
		t.Fatalf("refused rebalance = %d,%v, want -1,refused", vri, out)
	}
	if tb.Len() != 0 {
		t.Fatalf("stale pin survived refused rebalance: len = %d", tb.Len())
	}
	st := tb.Stats()
	if st.Unpinned != 1 || st.Refusals != 1 {
		t.Fatalf("stats = %+v, want 1 unpinned 1 refusal", st)
	}
	// The flow re-enters through the miss path; keep must not run because no
	// pin remains.
	vri, out = tb.Assign(5, 3, func(int) bool {
		t.Fatal("keep ran for a deleted pin")
		return false
	}, pickConst(7))
	if vri != 7 || out != Miss {
		t.Fatalf("assign after refused rebalance = %d,%v, want 7,miss", vri, out)
	}
}

// TestRebalancesNotCountedOnRefusal is the regression test for the counter
// over-count: a refused pick used to increment Rebalances even though no pin
// was re-installed. Refusals have their own counter now.
func TestRebalancesNotCountedOnRefusal(t *testing.T) {
	tb := NewTable(1, 64)
	tb.Assign(9, 1, keepAlways, pickConst(2))
	tb.BumpEpoch()
	tb.Assign(9, 2, keepNever, pickConst(-1)) // refused rebalance
	tb.Assign(11, 3, keepAlways, pickConst(-1))
	st := tb.Stats()
	if st.Rebalances != 0 {
		t.Fatalf("rebalances = %d, want 0 (nothing was re-pinned)", st.Rebalances)
	}
	if st.Refusals != 2 {
		t.Fatalf("refusals = %d, want 2", st.Refusals)
	}
	// An actual re-pin still counts.
	tb.Assign(9, 4, keepAlways, pickConst(2))
	tb.BumpEpoch()
	if _, out := tb.Assign(9, 5, keepNever, pickConst(3)); out != Rebalanced {
		t.Fatalf("outcome = %v, want rebalanced", out)
	}
	if st = tb.Stats(); st.Rebalances != 1 {
		t.Fatalf("rebalances = %d, want 1", st.Rebalances)
	}
}

// TestOverflowNeverEvictsPinned drives one shard past its capacity and checks
// the new-flow-sheds discipline: every established pin survives, the excess
// flows come back with Outcome Overflow carrying pick's choice, and the
// overflow is counted.
func TestOverflowNeverEvictsPinned(t *testing.T) {
	tb := NewTable(1, probeWindow) // smallest shard: one probe window
	if tb.ShardCap() != probeWindow {
		t.Fatalf("shard cap = %d, want %d", tb.ShardCap(), probeWindow)
	}
	// All keys collide into the same window because the slot index is taken
	// from the key's high 32 bits, which we hold constant.
	key := func(i int) uint64 { return uint64(i + 1) } // low bits only
	for i := 0; i < probeWindow; i++ {
		if _, out := tb.Assign(key(i), int64(i), keepAlways, pickConst(1)); out != Miss {
			t.Fatalf("flow %d outcome = %v, want miss", i, out)
		}
	}
	// One more flow: it must be turned away, not admitted over a pinned one.
	vri, out := tb.Assign(key(probeWindow), 100, keepAlways, pickConst(2))
	if vri != 2 || out != Overflow {
		t.Fatalf("overflow assign = %d,%v, want 2,overflow", vri, out)
	}
	st := tb.Stats()
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (pinned flows are never evicted)", st.Evictions)
	}
	if st.Overflows != 1 {
		t.Fatalf("overflows = %d, want 1", st.Overflows)
	}
	// Every established flow still hits on its original pin.
	for i := 0; i < probeWindow; i++ {
		if vri, out := tb.Assign(key(i), 200, keepAlways, pickConst(9)); vri != 1 || out != Hit {
			t.Fatalf("established flow %d after overflow = %d,%v, want 1,hit", i, vri, out)
		}
	}
	if tb.ShardOccupancy(0) != probeWindow {
		t.Fatalf("occupancy = %d, want %d (bounded)", tb.ShardOccupancy(0), probeWindow)
	}
}

// TestIncrementalResizeKeepsPins grows a shard through several doublings and
// verifies no pin is lost and no flow changes VRI: growth replaces eviction.
func TestIncrementalResizeKeepsPins(t *testing.T) {
	tb := NewTable(1, 1<<16)
	const flows = 40000 // forces several doublings from initialShardSlots
	keys := make([]uint64, flows)
	for i := range keys {
		// Golden-ratio scramble spreads home slots across the slab.
		keys[i] = (uint64(i+1) * 0x9e3779b97f4a7c15) | 1
		want := int(keys[i] % 7)
		if _, out := tb.Assign(keys[i], int64(i), keepAlways, pickConst(want)); out != Miss {
			t.Fatalf("flow %d outcome = %v, want miss", i, out)
		}
	}
	st := tb.Stats()
	if st.Resizes == 0 {
		t.Fatalf("resizes = 0, want > 0 (table must have grown)")
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 across resize", st.Evictions)
	}
	if tb.Len() != flows {
		t.Fatalf("len = %d, want %d", tb.Len(), flows)
	}
	for i, k := range keys {
		vri, out := tb.Assign(k, int64(flows+i), keepAlways, pickConst(-1))
		if out != Hit || vri != int(k%7) {
			t.Fatalf("flow %d after resize = %d,%v, want %d,hit", i, vri, out, k%7)
		}
	}
	if slots := tb.ShardSlots(0); slots <= initialShardSlots {
		t.Fatalf("shard slots = %d, want > %d after growth", slots, initialShardSlots)
	}
}

// TestLenConservationAfterChurn churns assigns, epoch bumps, refusals, and
// evictions, then checks the conservation law: live pins equal installs minus
// deletions (Misses count only actual installs now).
func TestLenConservationAfterChurn(t *testing.T) {
	tb := NewTable(4, 1024)
	refuse := func(i int) func() int {
		if i%3 == 0 {
			return pickConst(-1)
		}
		return pickConst(i % 5)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 2000; i++ {
			k := (uint64(i+1) * 2654435761) | 1
			keep := keepAlways
			if i%2 == 0 {
				keep = keepNever
			}
			tb.Assign(k, int64(round*2000+i), keep, refuse(i))
		}
		tb.BumpEpoch()
		evict(tb, round%5, refuse(round))
	}
	st := tb.Stats()
	want := st.Misses - st.Unpinned - st.Evictions
	if int64(tb.Len()) != want {
		t.Fatalf("len = %d, want misses-unpinned-evictions = %d (stats %+v)",
			tb.Len(), want, st)
	}
	occ := 0
	for i := 0; i < tb.Shards(); i++ {
		occ += tb.ShardOccupancy(i)
	}
	if occ != tb.Len() {
		t.Fatalf("sum of shard occupancy %d != len %d", occ, tb.Len())
	}
}

// TestConcurrentChurnWithRefusingPick runs Assign against concurrent
// BumpEpoch and Evict with a pick that refuses intermittently — the exact
// interleaving of the old stale-pin leak — under -race, then checks the
// conservation law still holds.
func TestConcurrentChurnWithRefusingPick(t *testing.T) {
	tb := NewTable(8, 4096)
	var stop atomic.Bool
	var workers, churn sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 30000; i++ {
				k := (uint64(i%800+1) * 0x9e3779b97f4a7c15) | 1
				keep := keepAlways
				if i%2 == 0 {
					keep = keepNever
				}
				pick := pickConst(w)
				if i%7 == 0 {
					pick = pickConst(-1)
				}
				tb.Assign(k, int64(i), keep, pick)
			}
		}(w)
	}
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			tb.BumpEpoch()
			if i%3 == 0 {
				evict(tb, i%4, pickConst(-1))
			} else {
				evict(tb, i%4, pickConst((i+1)%4))
			}
		}
	}()
	workers.Wait()
	stop.Store(true)
	churn.Wait()

	st := tb.Stats()
	if int64(tb.Len()) != st.Misses-st.Unpinned-st.Evictions {
		t.Fatalf("len = %d, want misses-unpinned-evictions = %d (stats %+v)",
			tb.Len(), st.Misses-st.Unpinned-st.Evictions, st)
	}
}

func TestShardIndependence(t *testing.T) {
	tb := NewTable(4, 64)
	if tb.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", tb.Shards())
	}
	// Keys 0..3 in the low bits land on distinct shards.
	for i := uint64(0); i < 4; i++ {
		tb.Assign(0x100|i, 1, keepAlways, pickConst(int(i)))
	}
	occupied := 0
	for i := 0; i < tb.Shards(); i++ {
		occupied += tb.ShardOccupancy(i)
		if tb.ShardOccupancy(i) != 1 {
			t.Fatalf("shard %d occupancy = %d, want 1", i, tb.ShardOccupancy(i))
		}
	}
	if occupied != tb.Len() {
		t.Fatalf("sum of shard occupancy %d != Len %d", occupied, tb.Len())
	}
}

// TestConcurrentAssign hammers the table from several goroutines under -race
// and verifies the affinity invariant: with no epoch bumps, every assignment
// of the same key returns the same VRI.
func TestConcurrentAssign(t *testing.T) {
	tb := NewTable(8, 1024)
	const workers = 8
	const keys = 512
	const rounds = 200

	var wg sync.WaitGroup
	results := make([][]int, workers)
	for w := 0; w < workers; w++ {
		results[w] = make([]int, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := uint64(k)*0x9e3779b97f4a7c15 | 1
					vri, _ := tb.Assign(key, int64(r), keepAlways, pickConst(w))
					if prev := results[w][k]; prev != 0 && prev != vri {
						t.Errorf("key %d moved from VRI %d to %d without an epoch bump", k, prev, vri)
						return
					}
					results[w][k] = vri
				}
			}
		}(w)
	}
	wg.Wait()
	// All workers must agree on every key's pin.
	for k := 0; k < keys; k++ {
		for w := 1; w < workers; w++ {
			if results[w][k] != results[0][k] {
				t.Fatalf("key %d: worker %d saw VRI %d, worker 0 saw %d",
					k, w, results[w][k], results[0][k])
			}
		}
	}
}

func TestKeyOfStableAndNonzero(t *testing.T) {
	f, err := packet.BuildUDP(packet.UDPBuildOpts{
		Src: packet.IPv4(10, 1, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
		SrcPort: 5000, DstPort: 9, WireSize: packet.MinWireSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	k1 := KeyOf(f)
	k2 := KeyOf(f.Clone())
	if k1 != k2 {
		t.Fatalf("KeyOf not stable: %x vs %x", k1, k2)
	}
	if k1 == 0 {
		t.Fatal("KeyOf returned the reserved zero key")
	}
	// The 5-tuple path must match the documented hash.
	if ft, ok := packet.FlowOf(f); !ok || k1 != ft.Hash() {
		t.Fatalf("KeyOf = %x, want FiveTuple.Hash %x", k1, ft.Hash())
	}

	// Unparseable frames (runt, ARP, empty) still get stable nonzero keys.
	cases := []*packet.Frame{
		{Buf: nil},
		{Buf: []byte{1, 2, 3}},
		{Buf: make([]byte, packet.EthHeaderLen)},
		{Buf: append(make([]byte, 12), 0x08, 0x06)}, // ARP EtherType
	}
	for i, f := range cases {
		k := KeyOf(f)
		if k == 0 {
			t.Fatalf("case %d: zero key", i)
		}
		if k != KeyOf(f) {
			t.Fatalf("case %d: unstable key", i)
		}
	}
	// Same leading bytes, different length: distinct fallback keys.
	a := &packet.Frame{Buf: make([]byte, 10)}
	b := &packet.Frame{Buf: make([]byte, 11)}
	if KeyOf(a) == KeyOf(b) {
		t.Fatal("fallback key ignores length")
	}
}

func TestEvictRepinsToSurvivor(t *testing.T) {
	tb := NewTable(2, 64)
	// Pin ten flows to VRI 5 and five flows to VRI 2.
	for k := uint64(1); k <= 10; k++ {
		tb.Assign(k<<32|k, 1, keepAlways, pickConst(5))
	}
	for k := uint64(11); k <= 15; k++ {
		tb.Assign(k<<32|k, 1, keepAlways, pickConst(2))
	}

	touched := evict(tb, 5, pickConst(2))
	if touched != 10 {
		t.Fatalf("evict touched %d pins, want 10", touched)
	}
	if tb.Len() != 15 {
		t.Fatalf("len = %d, want 15 (re-pin must not delete)", tb.Len())
	}
	st := tb.Stats()
	if st.Rebalances != 10 {
		t.Fatalf("rebalances = %d, want 10", st.Rebalances)
	}
	if st.Unpinned != 0 {
		t.Fatalf("unpinned = %d, want 0", st.Unpinned)
	}

	// Every evicted flow must now hit on the survivor; pick must not run.
	for k := uint64(1); k <= 10; k++ {
		vri, out := tb.Assign(k<<32|k, 3, keepAlways, func() int {
			t.Fatalf("pick ran for re-pinned flow %d", k)
			return -1
		})
		if vri != 2 || out != Hit {
			t.Fatalf("flow %d after evict = %d,%v, want 2,hit", k, vri, out)
		}
	}
}

func TestEvictDeletesWithoutSurvivor(t *testing.T) {
	tb := NewTable(2, 64)
	for k := uint64(1); k <= 6; k++ {
		tb.Assign(k<<32|k, 1, keepAlways, pickConst(7))
	}

	touched := evict(tb, 7, pickConst(-1))
	if touched != 6 {
		t.Fatalf("evict touched %d pins, want 6", touched)
	}
	if tb.Len() != 0 {
		t.Fatalf("len = %d, want 0 after deleting all pins", tb.Len())
	}
	if st := tb.Stats(); st.Unpinned != 6 {
		t.Fatalf("unpinned = %d, want 6", st.Unpinned)
	}

	// Deleted flows re-enter through the miss path.
	vri, out := tb.Assign(1<<32|1, 3, keepAlways, pickConst(4))
	if vri != 4 || out != Miss {
		t.Fatalf("assign after delete = %d,%v, want 4,miss", vri, out)
	}
}

func TestEvictRepickReturningSameVRIDeletes(t *testing.T) {
	// A repick that hands back the dying VRI itself must be treated as a
	// refusal — re-pinning a flow to the VRI being torn down would undo the
	// eviction.
	tb := NewTable(1, 64)
	tb.Assign(9<<32|9, 1, keepAlways, pickConst(3))
	evict(tb, 3, pickConst(3))
	if tb.Len() != 0 {
		t.Fatalf("len = %d, want 0", tb.Len())
	}
	if st := tb.Stats(); st.Unpinned != 1 {
		t.Fatalf("unpinned = %d, want 1", st.Unpinned)
	}
}

func TestEvictConcurrentWithAssign(t *testing.T) {
	tb := NewTable(8, 256)
	const flows = 512
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := uint64(1); k <= flows; k++ {
			tb.Assign(k*2654435761, int64(k), keepAlways, pickConst(int(k%4)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			evict(tb, i%4, pickConst((i+1)%4))
		}
	}()
	wg.Wait()
	// No pin may reference an evicted-then-unrevived VRI inconsistently; the
	// table must stay internally consistent (Len equals occupied slots).
	total := 0
	for i := 0; i < tb.Shards(); i++ {
		total += tb.ShardOccupancy(i)
	}
	if total != tb.Len() {
		t.Fatalf("occupancy %d != len %d", total, tb.Len())
	}
}

func TestPinOfReportsWithoutTouching(t *testing.T) {
	tb := NewTable(4, 64)
	if vri, ok := tb.PinOf(42); ok || vri != 0 {
		t.Fatalf("PinOf on empty table = %d,%v, want 0,false", vri, ok)
	}
	tb.Assign(42, 1, keepAlways, pickConst(3))
	before := tb.Stats()
	vri, ok := tb.PinOf(42)
	if !ok || vri != 3 {
		t.Fatalf("PinOf(42) = %d,%v, want 3,true", vri, ok)
	}
	if got := tb.Stats(); got != before {
		t.Fatalf("PinOf moved counters: %+v -> %+v", before, got)
	}
	// A stale pin must still be reported — PinOf routes transplanted residue,
	// so it answers from the pin itself, never the epoch check.
	tb.BumpEpoch()
	if vri, ok = tb.PinOf(42); !ok || vri != 3 {
		t.Fatalf("PinOf after epoch bump = %d,%v, want 3,true", vri, ok)
	}
}

func TestMovePartitionRepinsSelectedFlows(t *testing.T) {
	tb := NewTable(4, 64)
	const flows = 32
	for k := uint64(1); k <= flows; k++ {
		tb.Assign(k, 1, keepAlways, pickConst(0))
	}
	before := tb.Stats()

	moved := movePartition(tb, 0, 2, func(key uint64) bool { return key%2 == 0 })
	if moved != flows/2 {
		t.Fatalf("moved %d pins, want %d", moved, flows/2)
	}
	for k := uint64(1); k <= flows; k++ {
		want := 0
		if k%2 == 0 {
			want = 2
		}
		if vri, ok := tb.PinOf(k); !ok || vri != want {
			t.Fatalf("PinOf(%d) = %d,%v, want %d,true", k, vri, ok, want)
		}
	}
	st := tb.Stats()
	if st.Rebalances != before.Rebalances+int64(moved) {
		t.Fatalf("rebalances %d, want %d", st.Rebalances, before.Rebalances+int64(moved))
	}
	if tb.Len() != flows {
		t.Fatalf("len = %d after move, want %d (moves never drop pins)", tb.Len(), flows)
	}

	// Moved pins are stamped with the current epoch: the next Assign is a
	// plain Hit on the destination, with no refresh or rebalance.
	if vri, out := tb.Assign(2, 6, keepNever, pickConst(9)); vri != 2 || out != Hit {
		t.Fatalf("post-move assign = %d,%v, want 2,hit", vri, out)
	}

	// A source VRI with no pins moves nothing.
	if n := movePartition(tb, 7, 0, func(uint64) bool { return true }); n != 0 {
		t.Fatalf("MovePartition from empty source moved %d", n)
	}
}

func TestMovePartitionFreshensStalePins(t *testing.T) {
	tb := NewTable(1, 64)
	tb.Assign(11, 1, keepAlways, pickConst(0))
	tb.BumpEpoch()
	if n := movePartition(tb, 0, 1, func(uint64) bool { return true }); n != 1 {
		t.Fatalf("moved %d, want 1", n)
	}
	// The move re-stamped the pin in the bumped epoch, so the flow's next
	// frame neither refreshes nor rebalances — it lands on dst as a Hit.
	if vri, out := tb.Assign(11, 3, keepNever, pickConst(5)); vri != 1 || out != Hit {
		t.Fatalf("assign after stale move = %d,%v, want 1,hit", vri, out)
	}
}
