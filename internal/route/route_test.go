package route

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lvrm/internal/packet"
	"lvrm/internal/route/routetest"
)

func ip(s string) packet.IP { return packet.MustParseIP(s) }

func TestInsertLookupLPM(t *testing.T) {
	var tbl Table
	if err := tbl.Insert(ip("0.0.0.0"), 0, 0, ip("10.1.0.254")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(ip("10.2.0.0"), 16, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(ip("10.2.3.0"), 24, 2, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dst    string
		wantIf int
	}{
		{"10.2.3.4", 2},  // most specific /24
		{"10.2.9.1", 1},  // /16
		{"192.0.2.1", 0}, // default
	}
	for _, c := range cases {
		e, err := tbl.Lookup(ip(c.dst))
		if err != nil {
			t.Fatalf("Lookup(%s): %v", c.dst, err)
		}
		if e.OutIf != c.wantIf {
			t.Errorf("Lookup(%s) -> if%d, want if%d", c.dst, e.OutIf, c.wantIf)
		}
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestLookupNoRoute(t *testing.T) {
	var tbl Table
	if _, err := tbl.Lookup(ip("10.0.0.1")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("empty table: %v", err)
	}
	tbl.Insert(ip("10.2.0.0"), 16, 1, 0)
	if _, err := tbl.Lookup(ip("10.3.0.1")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("uncovered dst: %v", err)
	}
}

func TestInsertReplaces(t *testing.T) {
	var tbl Table
	tbl.Insert(ip("10.0.0.0"), 8, 1, 0)
	tbl.Insert(ip("10.0.0.0"), 8, 5, 0)
	if tbl.Len() != 1 {
		t.Errorf("Len = %d after replace", tbl.Len())
	}
	e, _ := tbl.Lookup(ip("10.1.1.1"))
	if e.OutIf != 5 {
		t.Errorf("replaced route -> if%d", e.OutIf)
	}
}

func TestInsertMasksHostBits(t *testing.T) {
	var tbl Table
	// Host bits beyond the prefix length must be ignored.
	tbl.Insert(ip("10.2.3.4"), 16, 1, 0)
	e, err := tbl.Lookup(ip("10.2.200.1"))
	if err != nil || e.OutIf != 1 {
		t.Errorf("Lookup after sloppy insert = (%+v, %v)", e, err)
	}
	if e.Prefix != ip("10.2.0.0") {
		t.Errorf("stored prefix = %v", e.Prefix)
	}
}

func TestInsertBadBits(t *testing.T) {
	var tbl Table
	if err := tbl.Insert(0, -1, 0, 0); err == nil {
		t.Error("bits -1 accepted")
	}
	if err := tbl.Insert(0, 33, 0, 0); err == nil {
		t.Error("bits 33 accepted")
	}
}

func TestHostRoute(t *testing.T) {
	var tbl Table
	tbl.Insert(ip("10.2.3.4"), 32, 7, 0)
	if e, err := tbl.Lookup(ip("10.2.3.4")); err != nil || e.OutIf != 7 {
		t.Errorf("host route = (%+v, %v)", e, err)
	}
	if _, err := tbl.Lookup(ip("10.2.3.5")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("adjacent host matched /32: %v", err)
	}
}

// TestLPMProperty: for random destinations, the returned route is always the
// one with the longest matching prefix among a brute-force scan.
func TestLPMProperty(t *testing.T) {
	var tbl Table
	entries := []Entry{
		{Prefix: ip("0.0.0.0"), Bits: 0, OutIf: 0},
		{Prefix: ip("10.0.0.0"), Bits: 8, OutIf: 1},
		{Prefix: ip("10.2.0.0"), Bits: 16, OutIf: 2},
		{Prefix: ip("10.2.3.0"), Bits: 24, OutIf: 3},
		{Prefix: ip("172.16.0.0"), Bits: 12, OutIf: 4},
		{Prefix: ip("192.168.1.0"), Bits: 24, OutIf: 5},
	}
	for _, e := range entries {
		tbl.Insert(e.Prefix, e.Bits, e.OutIf, 0)
	}
	match := func(dst packet.IP, e Entry) bool {
		if e.Bits == 0 {
			return true
		}
		mask := ^uint32(0) << (32 - uint(e.Bits))
		return uint32(dst)&mask == uint32(e.Prefix)&mask
	}
	f := func(a, b, c, d byte) bool {
		dst := packet.IPv4(a, b, c, d)
		got, err := tbl.Lookup(dst)
		if err != nil {
			return false // default route always matches
		}
		bestBits, bestIf := -1, -1
		for _, e := range entries {
			if match(dst, e) && e.Bits > bestBits {
				bestBits, bestIf = e.Bits, e.OutIf
			}
		}
		return got.OutIf == bestIf && got.Bits == bestBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseCIDR(t *testing.T) {
	p, bits, err := ParseCIDR("10.2.0.0/16")
	if err != nil || p != ip("10.2.0.0") || bits != 16 {
		t.Errorf("ParseCIDR = (%v,%d,%v)", p, bits, err)
	}
	for _, bad := range []string{"10.2.0.0", "10.2.0.0/33", "10.2.0.0/x", "zz/8"} {
		if _, _, err := ParseCIDR(bad); err == nil {
			t.Errorf("ParseCIDR(%q) accepted", bad)
		}
	}
}

func TestLoadMapFile(t *testing.T) {
	src := `
# VR1 static routes
10.2.0.0/16  if1            # receiver subnet, directly connected
10.1.0.0/16  if0
0.0.0.0/0    if0 10.1.0.254 # default via gateway
`
	tbl, err := LoadMapFile(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	e, err := tbl.Lookup(ip("10.2.44.5"))
	if err != nil || e.OutIf != 1 || e.NextHop != 0 {
		t.Errorf("receiver route = (%+v,%v)", e, err)
	}
	e, _ = tbl.Lookup(ip("8.8.8.8"))
	if e.OutIf != 0 || e.NextHop != ip("10.1.0.254") {
		t.Errorf("default route = %+v", e)
	}
	if len(tbl.Entries()) != 3 {
		t.Errorf("Entries len = %d", len(tbl.Entries()))
	}
}

func TestLoadMapFileErrors(t *testing.T) {
	bad := []string{
		"10.2.0.0/16",               // missing interface
		"10.2.0.0/16 eth1",          // bad interface name
		"10.2.0.0/99 if1",           // bad prefix
		"10.2.0.0/16 if1 badhop",    // bad next hop
		"10.2.0.0/16 if1 1.2.3.4 x", // trailing junk
		"10.2.0.0/16 if-1",          // negative interface
	}
	for _, line := range bad {
		if _, err := LoadMapFile(strings.NewReader(line)); err == nil {
			t.Errorf("LoadMapFile accepted %q", line)
		}
	}
}

// TestDeleteAndCompaction exercises delete paths through split nodes.
func TestDeleteAndCompaction(t *testing.T) {
	var tbl Table
	tbl.Insert(ip("10.2.0.0"), 16, 1, 0)
	tbl.Insert(ip("10.3.0.0"), 16, 2, 0) // splits at /15
	tbl.Insert(ip("10.2.3.0"), 24, 3, 0)

	if !tbl.Delete(ip("10.2.3.0"), 24) {
		t.Fatal("delete /24 failed")
	}
	if e, err := tbl.Lookup(ip("10.2.3.4")); err != nil || e.OutIf != 1 {
		t.Fatalf("after /24 delete: (%+v, %v)", e, err)
	}
	if tbl.Delete(ip("10.2.3.0"), 24) {
		t.Fatal("double delete succeeded")
	}
	if tbl.Delete(ip("10.2.0.0"), 24) {
		t.Fatal("delete of non-existent length succeeded")
	}
	if tbl.Delete(ip("10.9.0.0"), 16) {
		t.Fatal("delete of absent prefix succeeded")
	}
	if !tbl.Delete(ip("10.2.0.0"), 16) || !tbl.Delete(ip("10.3.0.0"), 16) {
		t.Fatal("deleting remaining routes failed")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tbl.Len())
	}
	if _, err := tbl.Lookup(ip("10.2.3.4")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("lookup in emptied table: %v", err)
	}
}

// checkAgainstOracle probes lookup with random destinations and compares
// every answer, the route count and the pre-order listing with the oracle.
func checkAgainstOracle(t *testing.T, what string, rng *rand.Rand, tbl *Table, want routetest.Oracle[Entry]) {
	t.Helper()
	if tbl.Len() != len(want) {
		t.Fatalf("%s: Len %d, oracle %d", what, tbl.Len(), len(want))
	}
	dsts, batch := make([]packet.IP, 32), make([]*Entry, 32)
	for i := range dsts {
		dsts[i] = packet.IP(rng.Uint32())
	}
	tbl.LookupBatch(dsts, batch)
	for i, dst := range dsts {
		w, hit := want.Lookup(dst)
		got, err := tbl.Lookup(dst)
		if (batch[i] != nil) != hit || (hit && *batch[i] != w) {
			t.Fatalf("%s: LookupBatch[%d](%v) = %v, want (%+v, %v)", what, i, dst, batch[i], w, hit)
		}
		if !hit {
			if !errors.Is(err, ErrNoRoute) {
				t.Fatalf("%s: Lookup(%v) = (%+v, %v), want miss", what, dst, got, err)
			}
			continue
		}
		if err != nil || got != w {
			t.Fatalf("%s: Lookup(%v) = (%+v, %v), want %+v", what, dst, got, err, w)
		}
	}
	// Entries lists every route once, in trie pre-order: a prefix before
	// the prefixes it covers, lower addresses first.
	entries := tbl.Entries()
	if len(entries) != len(want) {
		t.Fatalf("%s: %d entries, oracle %d", what, len(entries), len(want))
	}
	for i, e := range entries {
		if want[routetest.Prefix{IP: e.Prefix, Bits: e.Bits}] != e {
			t.Fatalf("%s: entry %+v not in oracle", what, e)
		}
		if i > 0 {
			p := entries[i-1]
			if p.Prefix > e.Prefix || (p.Prefix == e.Prefix && p.Bits >= e.Bits) {
				t.Fatalf("%s: entries out of order: %+v before %+v", what, p, e)
			}
		}
	}
}

// TestTableAgainstBruteForce torture-tests the trie with random
// insert/replace/delete/missing-delete streams against a brute-force LPM
// scan, and checks persistence: a Trie value or a Clone taken earlier keeps
// answering as it did then, and writes to a Clone never reach the original.
func TestTableAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tbl Table
	live := routetest.Oracle[Entry]{}
	// mutate applies one random operation to tb and its oracle.
	mutate := func(step int, tb *Table, or routetest.Oracle[Entry]) {
		bits := rng.Intn(33)
		p := Mask(packet.IP(rng.Uint32()), uint8(bits))
		k := routetest.Prefix{IP: p, Bits: bits}
		_, isLive := or[k]
		switch {
		case isLive && rng.Intn(2) == 0:
			if !tb.Delete(p, bits) {
				t.Fatalf("step %d: delete of live %v/%d failed", step, p, bits)
			}
			delete(or, k)
		case !isLive && rng.Intn(4) == 0:
			if tb.Delete(p, bits) {
				t.Fatalf("step %d: delete of absent %v/%d succeeded", step, p, bits)
			}
		default: // insert, or replace when live
			e := Entry{Prefix: p, Bits: bits, OutIf: rng.Intn(64), NextHop: packet.IP(rng.Uint32())}
			if err := tb.Insert(p, bits, e.OutIf, e.NextHop); err != nil {
				t.Fatal(err)
			}
			or[k] = e
		}
		if tb.Len() != len(or) {
			t.Fatalf("step %d: Len %d != live %d", step, tb.Len(), len(or))
		}
	}

	// held is the table as it was at the last checkpoint, three ways: the
	// raw trie value, a Clone left alone, and a Clone that is itself written.
	var heldTrie Trie[Entry]
	var heldClone, forked *Table
	var heldLive, forkedLive routetest.Oracle[Entry]

	for step := 0; step < 3000; step++ {
		mutate(step, &tbl, live)
		if forked != nil {
			mutate(step, forked, forkedLive)
		}
		if step%32 != 0 {
			continue
		}
		checkAgainstOracle(t, fmt.Sprintf("step %d", step), rng, &tbl, live)
		if heldClone != nil {
			checkAgainstOracle(t, fmt.Sprintf("step %d: trie value held for 32 steps", step), rng, &Table{trie: heldTrie}, heldLive)
			checkAgainstOracle(t, fmt.Sprintf("step %d: clone held for 32 steps", step), rng, heldClone, heldLive)
			checkAgainstOracle(t, fmt.Sprintf("step %d: written clone", step), rng, forked, forkedLive)
		}
		heldTrie, heldClone, heldLive = tbl.trie, tbl.Clone(), maps.Clone(live)
		forked, forkedLive = tbl.Clone(), maps.Clone(live)
	}
}

// TestLoadMapFileMalformed is the table-driven sweep over malformed prefix
// lengths and truncated lines demanded by the parser's error paths.
func TestLoadMapFileMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"truncated prefix", "10.2.0.0/ if1"},
		{"missing slash", "10.2.0.0 if1"},
		{"prefix len overflow", "10.2.0.0/4294967296 if1"},
		{"prefix len negative", "10.2.0.0/-1 if1"},
		{"prefix len 33", "10.2.0.0/33 if1"},
		{"prefix len junk", "10.2.0.0/1x if1"},
		{"short octets", "10.2.0/16 if1"},
		{"extra octets", "10.2.0.0.1/16 if1"},
		{"octet overflow", "10.2.0.256/16 if1"},
		{"interface only", "if1"},
		{"lone prefix", "10.2.0.0/16"},
		{"interface not ifN", "10.2.0.0/16 en0"},
		{"interface bare if", "10.2.0.0/16 if"},
		{"interface float", "10.2.0.0/16 if1.5"},
		{"next hop truncated", "10.2.0.0/16 if1 10.1.0"},
		{"four fields", "10.2.0.0/16 if1 10.1.0.254 extra"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadMapFile(strings.NewReader(c.in)); err == nil {
				t.Errorf("LoadMapFile accepted %q", c.in)
			}
		})
	}
	// Lines that must parse: comments, blanks, comment-suffixed routes.
	good := "# header\n\n10.2.0.0/16 if1 # inline\n   \n0.0.0.0/0 if0 10.1.0.254\n"
	tbl, err := LoadMapFile(strings.NewReader(good))
	if err != nil || tbl.Len() != 2 {
		t.Fatalf("good file: (%v, Len %d)", err, tbl.Len())
	}
}

func TestTableLookupAllocFree(t *testing.T) {
	var tbl Table
	tbl.Insert(ip("0.0.0.0"), 0, 0, 0)
	tbl.Insert(ip("10.2.0.0"), 16, 1, 0)
	tbl.Insert(ip("10.2.3.0"), 24, 2, 0)
	dst := ip("10.2.3.4")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tbl.Lookup(dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v per op, want 0", allocs)
	}
}

// BenchmarkTableLookup is in the CI 0-alloc gate.
func BenchmarkTableLookup(b *testing.B) {
	var tbl Table
	tbl.Insert(ip("0.0.0.0"), 0, 0, 0)
	for i := 0; i < 256; i++ {
		tbl.Insert(packet.IPv4(10, byte(i), 0, 0), 16, i%4, 0)
	}
	dst := ip("10.128.3.4")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tbl.Lookup(dst)
	}
}

// BenchmarkTableLookupTwoRoutes is the static map files' case: 10.2.0.0/16
// and a default route, with 10.2.x.y destinations looked up one at a time
// and sixteen to a call (ns/op is per destination in both). It is in the CI
// 0-alloc gate.
func BenchmarkTableLookupTwoRoutes(b *testing.B) {
	var tbl Table
	tbl.Insert(ip("10.2.0.0"), 16, 1, 0)
	tbl.Insert(ip("0.0.0.0"), 0, 0, ip("10.1.0.254"))
	rng := rand.New(rand.NewSource(1))
	dsts := make([]packet.IP, 1<<10)
	for i := range dsts {
		dsts[i] = routetest.EdgeDst(rng)
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, _ := tbl.Lookup(dsts[i&(len(dsts)-1)])
			lookupSink += e.OutIf
		}
	})
	b.Run("batch", func(b *testing.B) {
		out := make([]*Entry, 16)
		b.ReportAllocs()
		for i := 0; i < b.N; i += len(out) {
			at := i & (len(dsts) - 1)
			tbl.LookupBatch(dsts[at:at+len(out)], out)
			lookupSink += out[0].OutIf
		}
	})
}

// BenchmarkTableInsert measures (re)build cost. Each insert is a batch of
// one on a persistent trie, so it allocates the entry, at most two new nodes
// and a copy of every node on the path down to it with its slices (~7
// allocations at this depth, where writing nodes in place took ~3).
// Accepted: every static table a command, example, scenario or workload
// builds has a handful of routes, and in exchange Clone — once per VRI
// spawn — is a struct copy instead of N inserts.
func BenchmarkTableInsert(b *testing.B) {
	prefixes := make([]packet.IP, 1024)
	for i := range prefixes {
		prefixes[i] = packet.IPv4(10, byte(i>>8), byte(i), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var tbl Table
		for j, p := range prefixes {
			tbl.Insert(p, 24, j&3, 0)
		}
	}
	b.ReportMetric(float64(len(prefixes)), "routes/table")
}
