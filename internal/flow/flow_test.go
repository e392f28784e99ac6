package flow

import (
	"fmt"
	"math/rand"
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

// tagKey is a key whose tag — the upper 48 bits the table keeps — is i, so
// that small i give distinct pins with distinct home slots.
func tagKey(i uint64) uint64 { return i << 16 }

// sweep counts the pins naming each VRI by walking the slab: the test-only
// oracle PartitionSizes must agree with. It fails t on a pin whose owner slot
// holds no pins — a slot freed, or about to be reused, while a pin names it.
func sweep(t testing.TB, tb *Table) map[int]int {
	t.Helper()
	sizes := make(map[int]int)
	for _, p := range tb.pins {
		if p == 0 {
			continue
		}
		o := tb.owners[p&ownerMask]
		if o.pins <= 0 {
			t.Fatalf("pin %#x names owner slot %d, which holds %d pins", p, p&ownerMask, o.pins)
		}
		sizes[int(o.vri)]++
	}
	return sizes
}

// samePartitions fails t unless PartitionSizes equals the slab sweep.
func samePartitions(t testing.TB, tb *Table, when string) {
	t.Helper()
	got, want := tb.PartitionSizes(), sweep(t, tb)
	if len(got) != len(want) {
		t.Fatalf("%s: PartitionSizes %v, slab sweep %v", when, got, want)
	}
	for vri, n := range want {
		if got[vri] != n {
			t.Fatalf("%s: PartitionSizes %v, slab sweep %v", when, got, want)
		}
	}
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
	tb.Assign(tagKey(9), 1, keepAlways, pickConst(2))
	tb.BumpEpoch()
	tb.Assign(tagKey(9), 2, keepNever, pickConst(-1)) // refused rebalance
	tb.Assign(tagKey(11), 3, keepAlways, pickConst(-1))
	st := tb.Stats()
	if st.Rebalances != 0 {
		t.Fatalf("rebalances = %d, want 0 (nothing was re-pinned)", st.Rebalances)
	}
	if st.Refusals != 2 {
		t.Fatalf("refusals = %d, want 2", st.Refusals)
	}
	// An actual re-pin still counts.
	tb.Assign(tagKey(9), 4, keepAlways, pickConst(2))
	tb.BumpEpoch()
	if _, out := tb.Assign(tagKey(9), 5, keepNever, pickConst(3)); out != Rebalanced {
		t.Fatalf("outcome = %v, want rebalanced", out)
	}
	if st = tb.Stats(); st.Rebalances != 1 {
		t.Fatalf("rebalances = %d, want 1", st.Rebalances)
	}
}

// TestOverflowNeverEvictsPinned drives a table past its capacity and checks
// the new-flow-sheds discipline: every established pin survives, the excess
// flows come back with Outcome Overflow carrying pick's choice, and the
// overflow is counted.
func TestOverflowNeverEvictsPinned(t *testing.T) {
	tb := NewTable(1, probeWindow) // smallest table: one probe window
	if tb.Cap() != probeWindow {
		t.Fatalf("cap = %d, want %d", tb.Cap(), probeWindow)
	}
	// All keys share a home slot: it is taken from the tag's low bits, which
	// we hold at zero, so every key probes the same (whole-slab) window.
	key := func(i int) uint64 { return tagKey(uint64(i+1) << 5) }
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
	if tb.Len() != probeWindow {
		t.Fatalf("len = %d, want %d (bounded)", tb.Len(), probeWindow)
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
	want := st.Misses - st.Unpinned
	if int64(tb.Len()) != want {
		t.Fatalf("len = %d, want misses-unpinned = %d (stats %+v)",
			tb.Len(), want, st)
	}
	samePartitions(t, tb, "after churn")
}

// TestConcurrentChurnWithRefusingPick interleaves Assign with BumpEpoch and
// evictions under a pick that refuses intermittently — the interleaving of
// the old stale-pin leak — on the table's one writer, four VRIs' streams
// taking turns, while readers scrape Stats, Len and PartitionSizes under
// -race. The conservation law must still hold at the end.
func TestConcurrentChurnWithRefusingPick(t *testing.T) {
	tb := NewTable(8, 4096)
	stop := readConcurrently(t, tb, 800, 4)
	for i := 0; i < 30000; i++ {
		for j := 0; j < 4; j++ {
			w := (i + j) % 4 // the streams take turns going first
			k := tagKey(uint64(i%800 + 1))
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
		if c := i / 512; i%512 == 511 {
			tb.BumpEpoch()
			if c%3 == 0 {
				evict(tb, c%4, pickConst(-1))
			} else {
				evict(tb, c%4, pickConst((c+1)%4))
			}
		}
	}
	stop()

	st := tb.Stats()
	if int64(tb.Len()) != st.Misses-st.Unpinned {
		t.Fatalf("len = %d, want misses-unpinned = %d (stats %+v)",
			tb.Len(), st.Misses-st.Unpinned, st)
	}
	samePartitions(t, tb, "after churn")
}

// TestConcurrentAssign checks the affinity invariant while readers scrape
// the table under -race: with no epoch bumps, every assignment of a key
// returns the VRI it was first pinned to, whichever VRI later picks would
// choose, and PinOf agrees at the end.
func TestConcurrentAssign(t *testing.T) {
	const keys, rounds = 512, 200
	tb := NewTable(8, 1024)
	stop := readConcurrently(t, tb, keys, 8)
	first := make([]int, keys)
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			key := tagKey(uint64(k) + 1)
			vri, _ := tb.Assign(key, int64(r), keepAlways, pickConst((k+r)%8))
			if r == 0 {
				first[k] = vri
			} else if vri != first[k] {
				t.Fatalf("key %d moved from VRI %d to %d without an epoch bump", k, first[k], vri)
			}
		}
	}
	stop()
	for k := 0; k < keys; k++ {
		if vri, ok := tb.PinOf(tagKey(uint64(k) + 1)); !ok || vri != first[k] {
			t.Fatalf("key %d: PinOf = %d,%v, want %d", k, vri, ok, first[k])
		}
	}
	if tb.Len() != keys {
		t.Fatalf("len = %d, want %d", tb.Len(), keys)
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

// TestEvictConcurrentWithAssign interleaves installs with evictions that
// repin each evicted partition to the next VRI, on the table's one writer,
// while readers scrape the per-VRI counts: a reader must never count a
// moved pin twice. The published counts must match the pins in the slab
// after every eviction and at the end.
func TestEvictConcurrentWithAssign(t *testing.T) {
	const flows, rounds = 512, 50
	tb := NewTable(8, 256)
	stop := readConcurrently(t, tb, flows, 4)
	for r := 0; r < rounds; r++ {
		for k := uint64(1); k <= flows; k++ {
			tb.Assign(tagKey(k*2654435761), int64(k), keepAlways, pickConst(int(k+uint64(r))%4))
			if k%32 == 0 {
				i := int(k/32) + r
				evict(tb, i%4, pickConst((i+1)%4))
				samePartitions(t, tb, fmt.Sprintf("after eviction %d of round %d", i, r))
			}
		}
	}
	stop()
	total := 0
	for _, n := range tb.PartitionSizes() {
		total += n
	}
	if total != tb.Len() {
		t.Fatalf("partitions sum to %d, len %d", total, tb.Len())
	}
	samePartitions(t, tb, "at the end")
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
		tb.Assign(tagKey(k), 1, keepAlways, pickConst(0))
	}
	before := tb.Stats()

	moved := movePartition(tb, 0, 2, func(key uint64) bool { return (key>>16)%2 == 0 })
	if moved != flows/2 {
		t.Fatalf("moved %d pins, want %d", moved, flows/2)
	}
	for k := uint64(1); k <= flows; k++ {
		want := 0
		if k%2 == 0 {
			want = 2
		}
		if vri, ok := tb.PinOf(tagKey(k)); !ok || vri != want {
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
	if vri, out := tb.Assign(tagKey(2), 6, keepNever, pickConst(9)); vri != 2 || out != Hit {
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

// TestNoOverflowsBelowCapacity installs 100 000 seeded keys at the wall-clock
// benchmark's flow-fib geometry (8 × 32768 slots, 38 % load) and wants every
// one pinned: at that load no probe window fills.
func TestNoOverflowsBelowCapacity(t *testing.T) {
	const flows = 100_000
	for seed := uint64(1); seed <= 3; seed++ {
		tb := NewTable(8, 32768)
		for i := uint64(0); i < flows; i++ {
			if _, out := tb.Assign(mix64(seed<<32+i), 0, keepAlways, pickConst(int(i%4))); out != Miss {
				t.Fatalf("seed %d: flow %d installed as %v, want miss", seed, i, out)
			}
		}
		if st := tb.Stats(); st.Overflows != 0 {
			t.Errorf("seed %d: %d overflows below capacity", seed, st.Overflows)
		}
		if tb.Len() != flows {
			t.Errorf("seed %d: len = %d, want %d", seed, tb.Len(), flows)
		}
	}
}

// TestOwnerSlotReuseNeverNamesOldVRI empties a VRI's partition, which frees
// its owner slot, and gives the slot to another VRI: no pin may come back
// naming the new VRI that was not pinned to it, and the old VRI's flows are
// gone, not inherited.
func TestOwnerSlotReuseNeverNamesOldVRI(t *testing.T) {
	tb := NewTable(1, 1024)
	for k := uint64(1); k <= 20; k++ {
		tb.Assign(tagKey(k), 0, keepAlways, pickConst(3))
	}
	tb.Assign(tagKey(100), 0, keepAlways, pickConst(4))
	slot3 := tb.slotFor(3)
	if n := tb.Transfer(3, func(uint64) int { return -1 }); n != 20 {
		t.Fatalf("Transfer deleted %d pins, want 20", n)
	}
	samePartitions(t, tb, "after the delete")
	if _, ok := tb.PartitionSizes()[3]; ok {
		t.Fatalf("VRI 3 still owns pins: %v", tb.PartitionSizes())
	}
	// VRI 5 takes the freed slot.
	tb.Assign(tagKey(200), 0, keepAlways, pickConst(5))
	if got := tb.slotFor(5); got != slot3 {
		t.Fatalf("VRI 5 got owner slot %d, want the freed slot %d", got, slot3)
	}
	for k := uint64(1); k <= 20; k++ {
		if vri, ok := tb.PinOf(tagKey(k)); ok {
			t.Fatalf("deleted flow %d resolves to VRI %d", k, vri)
		}
		if vri, out := tb.Assign(tagKey(k), 0, keepAlways, pickConst(6)); vri != 6 || out != Miss {
			t.Fatalf("deleted flow %d = %d,%v, want 6,miss", k, vri, out)
		}
	}
	want := map[int]int{4: 1, 5: 1, 6: 20}
	samePartitions(t, tb, "after reuse")
	for vri, n := range want {
		if got := tb.PartitionSizes()[vri]; got != n {
			t.Fatalf("partitions %v, want %v", tb.PartitionSizes(), want)
		}
	}
}

// TestLowBitsShareOnePin: the table keeps a key's upper 48 bits, so two keys
// that differ only below them are one flow to it — the second is a hit on
// the first one's pin, and both follow it when it moves.
func TestLowBitsShareOnePin(t *testing.T) {
	tb := NewTable(1, 64)
	a, b := tagKey(77)|0x1234, tagKey(77)|0xfedc
	if _, out := tb.Assign(a, 0, keepAlways, pickConst(1)); out != Miss {
		t.Fatalf("first key = %v, want miss", out)
	}
	if vri, out := tb.Assign(b, 0, keepAlways, pickConst(2)); vri != 1 || out != Hit {
		t.Fatalf("second key = %d,%v, want 1,hit on the shared pin", vri, out)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d, want 1", tb.Len())
	}
	var seen []uint64
	tb.Transfer(1, func(key uint64) int { seen = append(seen, key); return 2 })
	if len(seen) != 1 || seen[0] != tagKey(77) {
		t.Fatalf("Transfer passed keys %#x, want the one tag %#x", seen, tagKey(77))
	}
	for _, k := range []uint64{a, b} {
		if vri, ok := tb.PinOf(k); !ok || vri != 2 {
			t.Fatalf("PinOf(%#x) = %d,%v after the move, want 2,true", k, vri, ok)
		}
	}
}

// TestPartitionSizesMatchSweep runs a seeded stream of every table operation
// — installs, hits, refreshes, rebalances, refusals, epoch bumps, and
// transfers that move, keep and delete — and checks after each one that the
// published partition sizes equal a sweep of the slab.
func TestPartitionSizesMatchSweep(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(1, 1<<12)
		for op := 0; op < 6000; op++ {
			switch r := rng.Intn(100); {
			case r < 2:
				tb.BumpEpoch()
			case r < 5:
				src, to := rng.Intn(5), rng.Intn(6)-1
				tb.Transfer(src, func(key uint64) int {
					switch (key >> 16) % 3 {
					case 0:
						return src
					case 1:
						return to
					}
					return -1
				})
			default:
				key := mix64(uint64(rng.Intn(2500)) + 1)
				keep := func(int) bool { return key%2 == 0 }
				pick := pickConst(rng.Intn(6) - 1)
				tb.Assign(key, 0, keep, pick)
			}
			samePartitions(t, tb, fmt.Sprintf("seed %d op %d", seed, op))
			pinned := 0
			for _, p := range tb.pins {
				if p != 0 {
					pinned++
				}
			}
			if got := tb.Len(); got != pinned {
				t.Fatalf("seed %d op %d: len %d, %d pins in the slab", seed, op, got, pinned)
			}
		}
	}
}
