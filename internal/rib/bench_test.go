package rib

import (
	"testing"

	"lvrm/internal/packet"
	"lvrm/internal/route"
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
