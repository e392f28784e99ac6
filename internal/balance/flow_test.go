package balance

import (
	"testing"

	"lvrm/internal/flow"
	"lvrm/internal/packet"
)

// flowPick is flow-based balancing as the monitor composes it (Section 3.3):
// the flow table pins each flow, and b picks the VRI of a flow with no usable
// pin. A stale pin is kept while its VRI is still among ts and re-picked
// otherwise. It returns the index into ts of the VRI f's flow goes to.
func flowPick(t *testing.T, tbl *flow.Table, b Balancer, ts []Target, f *packet.Frame) int {
	t.Helper()
	index := func(id int) int {
		for i, tgt := range ts {
			if tgt.ID == id {
				return i
			}
		}
		return -1
	}
	keep := func(vri int) bool { return index(vri) >= 0 }
	pick := func() int { return ts[b.Pick(ts, f)].ID }
	id, oc := tbl.Assign(flow.KeyOf(f), 0, keep, pick)
	i := index(id)
	if i < 0 {
		t.Fatalf("flow sent to VRI %d (%v), not among the targets", id, oc)
	}
	return i
}

func TestFlowBasedPinsFlow(t *testing.T) {
	tbl := flow.NewTable(1, 64)
	rr := NewRoundRobin()
	ts := fixedTargets(0, 0, 0)
	fA, fB := udpFrame(t, 1000), udpFrame(t, 2000)
	a1 := flowPick(t, tbl, rr, ts, fA) // round robin -> 0
	b1 := flowPick(t, tbl, rr, ts, fB) // round robin -> 1
	if a1 == b1 {
		t.Fatalf("two flows pinned to same VRI: %d", a1)
	}
	// Later frames of each flow must follow the first.
	for i := 0; i < 10; i++ {
		if got := flowPick(t, tbl, rr, ts, fA); got != a1 {
			t.Fatalf("flow A moved: %d -> %d", a1, got)
		}
		if got := flowPick(t, tbl, rr, ts, fB); got != b1 {
			t.Fatalf("flow B moved: %d -> %d", b1, got)
		}
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if st := tbl.Stats(); st.Hits != 20 || st.Misses != 2 {
		t.Errorf("Stats = (%d,%d), want (20,2)", st.Hits, st.Misses)
	}
}

func TestFlowBasedRepinsWhenVRIGone(t *testing.T) {
	tbl := flow.NewTable(1, 64)
	rr := NewRoundRobin()
	ts := fixedTargets(0, 0, 0)
	f, other := udpFrame(t, 1000), udpFrame(t, 2000)
	first := flowPick(t, tbl, rr, ts, f)
	otherVRI := ts[flowPick(t, tbl, rr, ts, other)].ID
	// Remove the pinned VRI from the target set (core deallocated it and
	// marked every pin stale).
	var remaining []Target
	for i, tgt := range ts {
		if i != first {
			remaining = append(remaining, tgt)
		}
	}
	tbl.BumpEpoch()
	got := flowPick(t, tbl, rr, remaining, f)
	if st := tbl.Stats(); st.Rebalances != 1 {
		t.Errorf("Rebalances = %d, want 1", st.Rebalances)
	}
	// And the new pin must stick.
	if again := flowPick(t, tbl, rr, remaining, f); again != got {
		t.Errorf("re-pin did not stick: %d -> %d", got, again)
	}
	// A flow whose VRI survived stays where it was.
	if id := remaining[flowPick(t, tbl, rr, remaining, other)].ID; id != otherVRI {
		t.Errorf("surviving flow moved: VRI %d -> %d", otherVRI, id)
	}
}

func TestFlowBasedDistributesFlows(t *testing.T) {
	// Many flows through flow-based round robin should spread evenly.
	tbl := flow.NewTable(1, 1024)
	rr := NewRoundRobin()
	ts := fixedTargets(0, 0, 0, 0, 0, 0)
	counts := make([]int, 6)
	for p := uint16(1); p <= 600; p++ {
		counts[flowPick(t, tbl, rr, ts, udpFrame(t, p))]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("VRI %d got %d flows, want 100 (round-robin of first frames)", i, c)
		}
	}
}
