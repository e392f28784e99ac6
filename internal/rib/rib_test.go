package rib

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lvrm/internal/packet"
	"lvrm/internal/route"
)

func lookupIf(t *testing.T, r *RIB, dst string) (int, packet.IP) {
	t.Helper()
	rt, ok := r.FIB().Snapshot().Lookup(packet.MustParseIP(dst))
	if !ok {
		t.Fatalf("Lookup(%s): no route", dst)
	}
	return rt.OutIf, rt.NextHop
}

func TestBestPathAdminDistance(t *testing.T) {
	r := New(Options{})
	// OSPF announces first, then BGP (lower distance) takes over, then a
	// static (lowest) wins; withdrawing peels back in reverse.
	mustApply(t, r, add("10.9.0.0", 16, 5, SrcOSPF, 110))
	r.Publish()
	if outIf, _ := lookupIf(t, r, "10.9.1.1"); outIf != 5 {
		t.Fatalf("want OSPF route if5, got if%d", outIf)
	}

	mustApply(t, r, add("10.9.0.0", 16, 6, SrcBGP, 20))
	r.Publish()
	if outIf, _ := lookupIf(t, r, "10.9.1.1"); outIf != 6 {
		t.Fatalf("want BGP route if6, got if%d", outIf)
	}

	mustApply(t, r, add("10.9.0.0", 16, 7, SrcStatic, 1))
	r.Publish()
	if outIf, _ := lookupIf(t, r, "10.9.1.1"); outIf != 7 {
		t.Fatalf("want static route if7, got if%d", outIf)
	}

	mustApply(t, r, withdraw("10.9.0.0", 16, SrcStatic))
	r.Publish()
	if outIf, _ := lookupIf(t, r, "10.9.1.1"); outIf != 6 {
		t.Fatalf("after static withdraw want BGP if6, got if%d", outIf)
	}
	mustApply(t, r, withdraw("10.9.0.0", 16, SrcBGP))
	r.Publish()
	if outIf, _ := lookupIf(t, r, "10.9.1.1"); outIf != 5 {
		t.Fatalf("after BGP withdraw want OSPF if5, got if%d", outIf)
	}
	mustApply(t, r, withdraw("10.9.0.0", 16, SrcOSPF))
	r.Publish()
	if _, ok := r.FIB().Snapshot().Lookup(packet.MustParseIP("10.9.1.1")); ok {
		t.Fatal("route survived withdrawal of every candidate")
	}
	if n := r.FIB().Len(); n != 0 {
		t.Fatalf("FIB holds %d routes after all withdrawals, want 0", n)
	}
}

func TestBestPathTieBreakBySource(t *testing.T) {
	r := New(Options{})
	mustApply(t, r,
		Event{Prefix: packet.MustParseIP("10.9.0.0"), Bits: 16, OutIf: 8, Src: 30, Distance: 50},
		Event{Prefix: packet.MustParseIP("10.9.0.0"), Bits: 16, OutIf: 9, Src: 3, Distance: 50},
	)
	r.Publish()
	if outIf, _ := lookupIf(t, r, "10.9.1.1"); outIf != 9 {
		t.Fatalf("equal distance must pick lowest source id: got if%d, want if9", outIf)
	}
}

func TestSameSourceReplaces(t *testing.T) {
	r := New(Options{})
	mustApply(t, r,
		add("10.9.0.0", 16, 1, SrcBGP, 20),
		add("10.9.0.0", 16, 2, SrcBGP, 20),
	)
	r.Publish()
	if outIf, _ := lookupIf(t, r, "10.9.1.1"); outIf != 2 {
		t.Fatalf("same-source re-announce must replace: got if%d, want if2", outIf)
	}
	st := r.Stats()
	if st.Routes != 1 || st.Updates != 2 {
		t.Fatalf("stats = %+v, want 1 route / 2 updates", st)
	}
}

func TestWithdrawUnknownRejected(t *testing.T) {
	r := New(Options{})
	if err := r.Apply(withdraw("10.9.0.0", 16, SrcBGP)); err == nil {
		t.Fatal("withdraw of unknown route must error")
	}
	mustApply(t, r, add("10.9.0.0", 16, 1, SrcBGP, 20))
	if err := r.Apply(withdraw("10.9.0.0", 16, SrcOSPF)); err == nil {
		t.Fatal("withdraw from wrong source must error")
	}
	if err := r.Apply(Event{Prefix: 1, Bits: 33}); err == nil {
		t.Fatal("invalid prefix length must error")
	}
	if st := r.Stats(); st.Rejected != 3 {
		t.Fatalf("Rejected = %d, want 3", st.Rejected)
	}
}

func TestBatchingAndGenerations(t *testing.T) {
	r := New(Options{})
	mustApply(t, r,
		add("10.1.0.0", 16, 0, SrcStatic, 1),
		add("10.2.0.0", 16, 1, SrcStatic, 1),
		add("10.3.0.0", 16, 2, SrcStatic, 1),
	)
	if gen := r.FIB().Generation(); gen != 0 {
		t.Fatalf("FIB changed before Publish: gen %d", gen)
	}
	if n := r.Publish(); n != 3 {
		t.Fatalf("Publish applied %d changes, want 3", n)
	}
	if gen := r.FIB().Generation(); gen != 1 {
		t.Fatalf("one batch must produce one generation, got %d", gen)
	}
	if n := r.Publish(); n != 0 {
		t.Fatalf("empty Publish applied %d changes", n)
	}
	st := r.Stats()
	if st.Publishes != 1 || st.Changes != 3 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAutoPublishAtMaxBatch(t *testing.T) {
	r := New(Options{MaxBatch: 2})
	mustApply(t, r, add("10.1.0.0", 16, 0, SrcStatic, 1))
	if r.FIB().Generation() != 0 {
		t.Fatal("published below MaxBatch")
	}
	mustApply(t, r, add("10.2.0.0", 16, 1, SrcStatic, 1))
	if r.FIB().Generation() != 1 {
		t.Fatal("MaxBatch pending changes must auto-publish")
	}
	if r.FIB().Len() != 2 {
		t.Fatalf("FIB has %d routes, want 2", r.FIB().Len())
	}
}

func TestFlapCancelsBeforePublish(t *testing.T) {
	r := New(Options{})
	mustApply(t, r, add("10.2.0.0", 16, 1, SrcStatic, 1))
	r.Publish()

	// Announce-and-withdraw a more specific before any publish: net zero.
	mustApply(t, r,
		add("10.2.3.0", 24, 7, SrcBGP, 20),
		withdraw("10.2.3.0", 24, SrcBGP),
	)
	if st := r.Stats(); st.Pending != 0 {
		t.Fatalf("canceled flap left %d pending", st.Pending)
	}
	if n := r.Publish(); n != 0 {
		t.Fatalf("canceled flap published %d changes", n)
	}
	if gen := r.FIB().Generation(); gen != 1 {
		t.Fatalf("generation advanced to %d on a no-op", gen)
	}
}

func TestEventsFromTable(t *testing.T) {
	tbl, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n0.0.0.0/0 if0 10.1.0.254\n"))
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{})
	if err := r.ApplyAll(EventsFromTable(tbl, SrcStatic, 1)); err != nil {
		t.Fatal(err)
	}
	r.Publish()
	if outIf, _ := lookupIf(t, r, "10.2.9.9"); outIf != 1 {
		t.Fatalf("got if%d, want if1", outIf)
	}
	outIf, nh := lookupIf(t, r, "8.8.8.8")
	if outIf != 0 || nh != packet.MustParseIP("10.1.0.254") {
		t.Fatalf("default route: if%d via %v", outIf, nh)
	}
}

func TestHostBitsMasked(t *testing.T) {
	r := New(Options{})
	mustApply(t, r, add("10.2.3.99", 16, 1, SrcStatic, 1)) // host bits set
	r.Publish()
	rt, ok := r.FIB().Snapshot().Lookup(packet.MustParseIP("10.2.200.200"))
	if !ok || rt.Prefix != packet.MustParseIP("10.2.0.0") {
		t.Fatalf("host bits not masked: %+v ok=%v", rt, ok)
	}
}

// TestApplyAllPublishesOnce: a load far past MaxBatch through ApplyAll is
// one generation, where as many Apply calls would have published one per
// MaxBatch prefixes.
func TestApplyAllPublishesOnce(t *testing.T) {
	r := New(Options{MaxBatch: 64})
	evs := loadEvents(1000)
	if err := r.ApplyAll(evs); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Generation != 1 || st.Publishes != 1 || st.Pending != 0 || st.Routes != len(evs) {
		t.Fatalf("after one ApplyAll of %d routes: %+v, want generation 1 holding them all", len(evs), st)
	}
	for _, e := range evs {
		if rt, ok := r.FIB().Snapshot().Lookup(e.Prefix); !ok || rt.Bits < e.Bits {
			t.Fatalf("Lookup(%v) = %+v, %v: less specific than %v/%d", e.Prefix, rt, ok, e.Prefix, e.Bits)
		}
	}
}

// TestPinnedGenerationSurvivesPublish: a generation pinned before a Publish
// that changes, withdraws and adds routes throughout the nodes it holds
// answers, route for route, as it did before.
func TestPinnedGenerationSurvivesPublish(t *testing.T) {
	r := New(Options{})
	evs := loadEvents(2000)
	if err := r.ApplyAll(evs); err != nil {
		t.Fatal(err)
	}
	r.Publish()
	pinned := r.FIB().Snapshot()
	before := pinned.Routes()

	var next []Event
	for i, e := range evs {
		switch i % 3 {
		case 0:
			e.OutIf++
		case 1:
			e.Withdraw = true
		case 2:
			e.Bits = 28
		}
		next = append(next, e)
	}
	if err := r.ApplyAll(next); err != nil {
		t.Fatal(err)
	}
	if n := r.Publish(); n != len(next) {
		t.Fatalf("Publish changed %d routes, want %d", n, len(next))
	}
	if after := pinned.Routes(); !slices.Equal(after, before) {
		t.Fatalf("pinned generation changed: %d routes, had %d", len(after), len(before))
	}
	for _, rt := range before {
		if got, ok := pinned.Lookup(rt.Prefix); !ok || got != rt {
			t.Fatalf("pinned Lookup(%v) = %+v, %v, want %+v", rt.Prefix, got, ok, rt)
		}
	}
	if cur := r.FIB().Snapshot(); cur.Generation() != pinned.Generation()+1 || cur.Len() == pinned.Len() {
		t.Fatalf("generation %d holds %d routes, pinned %d holds %d", cur.Generation(), cur.Len(), pinned.Generation(), pinned.Len())
	}
}

// TestOffsettingBatchPublishesNothing: a batch of events that ends where it
// started — an add and its withdraw, a published route withdrawn and
// re-announced unchanged, a route moved and moved back — leaves nothing
// pending and publishes no generation.
func TestOffsettingBatchPublishesNothing(t *testing.T) {
	r := New(Options{MaxBatch: 2})
	if err := r.ApplyAll([]Event{add("10.2.0.0", 16, 1, SrcStatic, 1), add("10.9.0.0", 16, 2, SrcStatic, 1)}); err != nil {
		t.Fatal(err)
	}
	g := r.FIB().Snapshot()
	err := r.ApplyAll([]Event{
		add("10.2.3.0", 24, 7, SrcBGP, 20),
		add("10.4.0.0", 16, 7, SrcBGP, 20),
		withdraw("10.2.0.0", 16, SrcStatic),
		add("10.9.0.0", 16, 5, SrcStatic, 1),
		withdraw("10.2.3.0", 24, SrcBGP),
		add("10.2.0.0", 16, 1, SrcStatic, 1),
		withdraw("10.4.0.0", 16, SrcBGP),
		add("10.9.0.0", 16, 2, SrcStatic, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Pending != 0 || st.Publishes != 1 {
		t.Fatalf("offsetting batch: %+v, want nothing pending and no second publish", st)
	}
	if n := r.Publish(); n != 0 || r.FIB().Snapshot() != g {
		t.Fatalf("offsetting batch published %d changes", n)
	}
}

// loadEvents returns n distinct /24 adds spread over the address space, all
// from one source.
func loadEvents(n int) []Event {
	rng := rand.New(rand.NewSource(5))
	seen := map[packet.IP]bool{}
	var evs []Event
	for len(evs) < n {
		p := route.Mask(packet.IP(rng.Uint32()), 24)
		if !seen[p] {
			seen[p] = true
			evs = append(evs, Event{Prefix: p, Bits: 24, OutIf: uint16(len(evs) % 8), Src: SrcBGP, Distance: 20})
		}
	}
	return evs
}
