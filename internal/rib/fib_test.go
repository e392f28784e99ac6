package rib

import (
	"math/rand"
	"testing"

	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/route/routetest"
)

func mustApply(t *testing.T, r *RIB, evs ...Event) {
	t.Helper()
	for _, e := range evs {
		if err := r.Apply(e); err != nil {
			t.Fatalf("Apply(%+v): %v", e, err)
		}
	}
}

func add(prefix string, bits uint8, outIf uint16, src Source, dist uint8) Event {
	return Event{Prefix: packet.MustParseIP(prefix), Bits: bits, OutIf: outIf, Src: src, Distance: dist}
}

func withdraw(prefix string, bits uint8, src Source) Event {
	return Event{Withdraw: true, Prefix: packet.MustParseIP(prefix), Bits: bits, Src: src}
}

func TestFIBLongestPrefixMatch(t *testing.T) {
	r := New(Options{})
	mustApply(t, r,
		add("0.0.0.0", 0, 9, SrcStatic, 1),
		add("10.0.0.0", 8, 1, SrcStatic, 1),
		add("10.2.0.0", 16, 2, SrcStatic, 1),
		add("10.2.3.0", 24, 3, SrcStatic, 1),
		add("10.2.3.4", 32, 4, SrcStatic, 1),
	)
	r.Publish()
	g := r.FIB().Snapshot()
	cases := []struct {
		dst   string
		outIf int
	}{
		{"10.2.3.4", 4},
		{"10.2.3.5", 3},
		{"10.2.9.9", 2},
		{"10.9.9.9", 1},
		{"192.168.0.1", 9},
	}
	for _, c := range cases {
		rt, ok := g.Lookup(packet.MustParseIP(c.dst))
		if !ok {
			t.Fatalf("Lookup(%s): no route", c.dst)
		}
		if rt.OutIf != c.outIf {
			t.Errorf("Lookup(%s) = if%d, want if%d", c.dst, rt.OutIf, c.outIf)
		}
	}
}

func TestFIBMissWithoutDefault(t *testing.T) {
	r := New(Options{})
	mustApply(t, r, add("10.2.0.0", 16, 1, SrcStatic, 1))
	r.Publish()
	if _, ok := r.FIB().Snapshot().Lookup(packet.MustParseIP("192.168.0.1")); ok {
		t.Fatal("expected miss for uncovered destination")
	}
}

// TestFIBAgainstReference torture-tests the RIB-to-FIB pipeline against the
// linear-scan oracle with randomized insert/withdraw streams, checking LPM
// equivalence, the route count and the Routes order at every publish.
func TestFIBAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := New(Options{})
	live := routetest.Oracle[Event]{}

	for step := 0; step < 4000; step++ {
		bits := uint8(rng.Intn(33))
		p := route.Mask(packet.IP(rng.Uint32()), bits)
		k := routetest.Prefix{IP: p, Bits: int(bits)}
		if ev, ok := live[k]; ok && rng.Intn(2) == 0 {
			mustApply(t, r, Event{Withdraw: true, Prefix: p, Bits: bits, Src: ev.Src})
			delete(live, k)
		} else if !ok {
			ev := Event{Prefix: p, Bits: bits, OutIf: uint16(rng.Intn(100)), NextHop: packet.IP(rng.Uint32()), Src: SrcStatic, Distance: 1}
			mustApply(t, r, ev)
			live[k] = ev
		}
		if step%64 != 0 {
			continue
		}
		r.Publish()
		g := r.FIB().Snapshot()
		if g.Len() != len(live) {
			t.Fatalf("step %d: fib has %d routes, oracle %d", step, g.Len(), len(live))
		}
		dsts, batch := make([]packet.IP, 64), make([]*Route, 64)
		for i := range dsts {
			dsts[i] = packet.IP(rng.Uint32())
		}
		g.LookupBatch(dsts, batch)
		for i, dst := range dsts {
			got, ok := g.Lookup(dst)
			want, hit := live.Lookup(dst)
			if ok != hit {
				t.Fatalf("step %d: Lookup(%v) hit=%v, oracle hit=%v", step, dst, ok, hit)
			}
			if ok && (got.Prefix != want.Prefix || got.Bits != want.Bits || got.OutIf != int(want.OutIf) || got.NextHop != want.NextHop) {
				t.Fatalf("step %d: Lookup(%v) = %+v, oracle %+v", step, dst, got, want)
			}
			if (batch[i] != nil) != ok || (ok && *batch[i] != got) {
				t.Fatalf("step %d: LookupBatch[%d](%v) = %v, Lookup (%+v, %v)", step, i, dst, batch[i], got, ok)
			}
		}
		routes := g.Routes()
		if len(routes) != len(live) {
			t.Fatalf("step %d: Routes() has %d entries, oracle %d", step, len(routes), len(live))
		}
		for i := 1; i < len(routes); i++ {
			a, b := routes[i-1], routes[i]
			if a.Prefix > b.Prefix || (a.Prefix == b.Prefix && a.Bits >= b.Bits) {
				t.Fatalf("step %d: Routes() out of trie order: %v before %v", step, a, b)
			}
		}
	}
}

// TestFIBSnapshotImmutable proves epoch isolation: a pinned snapshot keeps
// answering from its own generation while later publications change the
// live table.
func TestFIBSnapshotImmutable(t *testing.T) {
	r := New(Options{})
	mustApply(t, r, add("10.2.0.0", 16, 1, SrcStatic, 1))
	r.Publish()
	old := r.FIB().Snapshot()

	mustApply(t, r,
		add("10.2.3.0", 24, 7, SrcBGP, 20),
		withdraw("10.2.0.0", 16, SrcStatic),
	)
	r.Publish()

	if rt, ok := old.Lookup(packet.MustParseIP("10.2.3.4")); !ok || rt.OutIf != 1 {
		t.Fatalf("pinned snapshot changed: %+v ok=%v", rt, ok)
	}
	cur := r.FIB().Snapshot()
	if rt, ok := cur.Lookup(packet.MustParseIP("10.2.3.4")); !ok || rt.OutIf != 7 {
		t.Fatalf("new snapshot wrong: %+v ok=%v", rt, ok)
	}
	if _, ok := cur.Lookup(packet.MustParseIP("10.2.9.9")); ok {
		t.Fatal("withdrawn /16 still reachable in new snapshot")
	}
	// Both changes batched into one publish -> exactly one new generation.
	if old.Generation()+1 != cur.Generation() {
		t.Fatalf("generations: old %d cur %d", old.Generation(), cur.Generation())
	}
}

func TestFIBLookupAllocFree(t *testing.T) {
	r := New(Options{})
	mustApply(t, r,
		add("0.0.0.0", 0, 0, SrcStatic, 1),
		add("10.0.0.0", 8, 1, SrcStatic, 1),
		add("10.2.0.0", 16, 2, SrcStatic, 1),
		add("10.2.3.0", 24, 3, SrcStatic, 1),
	)
	r.Publish()
	g := r.FIB().Snapshot()
	dst := packet.MustParseIP("10.2.3.4")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := g.Lookup(dst); !ok {
			t.Fatal("lookup miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("Gen.Lookup allocates %v per op, want 0", allocs)
	}
}

func TestRoutesWalk(t *testing.T) {
	r := New(Options{})
	mustApply(t, r,
		add("10.2.0.0", 16, 1, SrcStatic, 1),
		add("10.1.0.0", 16, 0, SrcStatic, 1),
		add("0.0.0.0", 0, 9, SrcStatic, 1),
	)
	r.Publish()
	rs := r.FIB().Snapshot().Routes()
	if len(rs) != 3 {
		t.Fatalf("Routes() returned %d entries, want 3", len(rs))
	}
}
