package rib

import (
	"math/rand"
	"testing"

	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/route/routetest"
)

// benchFIB builds a FIB with a realistic mixed-length route set.
func benchFIB(b *testing.B, routes int) *Gen {
	b.Helper()
	r := New(Options{})
	rng := splitmix64(1)
	mustApplyB(b, r, add("0.0.0.0", 0, 0, SrcStatic, 1))
	for i := 1; i < routes; i++ {
		bits := uint8(8 + rng()%25) // /8../32
		p := route.Mask(packet.IP(rng()), bits)
		if err := r.Apply(Event{Prefix: p, Bits: bits, OutIf: uint16(i & 0x7f), Src: SrcBGP, Distance: 20}); err != nil {
			b.Fatal(err)
		}
	}
	r.Publish()
	return r.FIB().Snapshot()
}

func mustApplyB(b *testing.B, r *RIB, evs ...Event) {
	b.Helper()
	for _, e := range evs {
		if err := r.Apply(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFIBLookup is in the CI 0-alloc gate: the lock-free data-path
// read must never allocate.
func BenchmarkFIBLookup(b *testing.B) {
	g := benchFIB(b, 10000)
	dsts := make([]packet.IP, 1024)
	rng := splitmix64(2)
	for i := range dsts {
		dsts[i] = packet.IP(rng())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Lookup(dsts[i&1023])
	}
}

// BenchmarkRIBApply measures the control-plane ingest+auto-publish cost of
// a sustained flap workload across 1024 prefixes (includes the FIB clone
// work every 64 events).
func BenchmarkRIBApply(b *testing.B) {
	r := New(Options{MaxBatch: 64})
	base := packet.IPv4(10, 2, 0, 0)
	up := make([]bool, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi := i & 1023
		ev := Event{Prefix: base + packet.IP(pi)<<8, Bits: 24, Src: SrcBGP, Distance: 20}
		if up[pi] {
			ev.Withdraw = true
		} else {
			ev.OutIf = 1
			ev.NextHop = packet.IPv4(10, 1, 0, 1)
		}
		up[pi] = !up[pi]
		if err := r.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// edgeGen publishes routetest.EdgeFIB as one FIB generation, with 64 Ki
// destinations under 10.2.0.0/16 to look up in it.
func edgeGen(b *testing.B) (*Gen, []packet.IP) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	r := New(Options{})
	for _, p := range routetest.EdgeFIB(rng) {
		mustApplyB(b, r, Event{Prefix: p.IP, Bits: uint8(p.Bits), OutIf: uint16(p.Bits), Src: SrcStatic, Distance: 1})
	}
	r.Publish()
	dsts := make([]packet.IP, 1<<16)
	for i := range dsts {
		dsts[i] = routetest.EdgeDst(rng)
	}
	return r.FIB().Snapshot(), dsts
}

var lookupSink int

// BenchmarkGenLookup is BenchmarkGenLookupBatch's partner on the same table
// and destinations. Both are in the CI 0-alloc gate.
func BenchmarkGenLookup(b *testing.B) {
	g, dsts := edgeGen(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, _ := g.Lookup(dsts[i&(len(dsts)-1)])
		lookupSink += rt.OutIf
	}
}

// BenchmarkGenLookupBatch resolves sixteen destinations per call against the
// one generation; ns/op is per destination.
func BenchmarkGenLookupBatch(b *testing.B) {
	g, dsts := edgeGen(b)
	out := make([]*Route, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(out) {
		at := i & (len(dsts) - 1)
		g.LookupBatch(dsts[at:at+len(out)], out)
		lookupSink += out[0].OutIf
	}
}

// BenchmarkRIBLoad is the initial load of the wall-clock benchmark's
// flow-fib table (routetest.EdgeFIB, ~12 500 prefixes) through one ApplyAll
// at MaxBatch 64: one generation, whose every node is made by the one batch
// that publishes it. B/op is the garbage a load leaves beside the trie.
func BenchmarkRIBLoad(b *testing.B) {
	var evs []Event
	for i, p := range routetest.EdgeFIB(rand.New(rand.NewSource(1))) {
		evs = append(evs, Event{Prefix: p.IP, Bits: uint8(p.Bits), OutIf: uint16(i % 7), NextHop: packet.IP(i), Src: SrcStatic})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(Options{MaxBatch: 64})
		if err := r.ApplyAll(evs); err != nil {
			b.Fatal(err)
		}
		if r.FIB().Generation() != 1 {
			b.Fatalf("load published %d generations, want 1", r.FIB().Generation())
		}
	}
}
