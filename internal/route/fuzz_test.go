package route

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"lvrm/internal/packet"
	"lvrm/internal/route/routetest"
)

// FuzzParseMapFile fuzzes the map-file parser, mirroring FuzzFrameDecode's
// corpus-seeded shape: seed with valid and almost-valid inputs, then check
// invariants on anything that parses — every loaded route must be
// retrievable and internally consistent.
func FuzzParseMapFile(f *testing.F) {
	seeds := []string{
		"10.2.0.0/16 if1\n",
		"# comment\n10.2.0.0/16  if1            # receiver subnet\n0.0.0.0/0 if0 10.1.0.254\n",
		"10.1.0.0/16 if0\n10.2.0.0/16 if1\n10.2.3.0/24 if2 10.2.0.254\n",
		"255.255.255.255/32 if15\n",
		"\n\n   \n",
		"10.2.0.0/33 if1\n",
		"10.2.0.0/16 eth0\n",
		"10.2.0.0/16 if1 badhop\n",
		"10.2.0.0/16 if1 1.2.3.4 junk\n",
		"10.2.0.0/\n",
		"10.2.0.0/16 if99999999999999999999\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := LoadMapFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		entries := tbl.Entries()
		if len(entries) != tbl.Len() {
			t.Fatalf("Len %d != %d entries", tbl.Len(), len(entries))
		}
		for _, e := range entries {
			if e.Bits < 0 || e.Bits > 32 {
				t.Fatalf("accepted invalid prefix length: %+v", e)
			}
			if Mask(e.Prefix, uint8(e.Bits)) != e.Prefix {
				t.Fatalf("host bits not masked: %+v", e)
			}
			// The route's own network address must resolve to a route at
			// least as specific as this one.
			got, err := tbl.Lookup(e.Prefix)
			if err != nil {
				t.Fatalf("entry %+v unreachable: %v", e, err)
			}
			if got.Bits < e.Bits {
				t.Fatalf("Lookup(%v) = %+v, less specific than %+v", e.Prefix, got, e)
			}
		}
		// A loaded table must round-trip through its own entries.
		var rebuilt Table
		for _, e := range entries {
			if err := rebuilt.Insert(e.Prefix, e.Bits, e.OutIf, e.NextHop); err != nil {
				t.Fatalf("re-inserting %+v: %v", e, err)
			}
		}
		if rebuilt.Len() != tbl.Len() {
			t.Fatalf("rebuild Len %d != %d", rebuilt.Len(), tbl.Len())
		}
	})
}

// FuzzTrieOps decodes its input into a stream of Set, Delete, Lookup and
// LookupBatch operations through batches on one trie and checks every answer
// against the linear-scan oracle, mid-batch included. An operation is six
// bytes: an opcode, an address and a prefix length. Opcodes with bit 2 set
// take the address relative to the last one, so that prefixes nest and
// branch; opcodes with bit 3 set first take the trie the batch has built so
// far and hold it beside a clone of the oracle, as the stream's halfway
// point also does, and the batch goes on from there. At the end every held trie must
// still answer as its oracle — the persistence that in-place writes to a
// batch's own nodes could break — and every trie must be minimal and walk
// in order.
func FuzzTrieOps(f *testing.F) {
	// op encodes one operation: 0 Set, 1 Delete, 2 Lookup, 3 LookupBatch,
	// plus 4 for an address relative to the last, plus 8 to end the batch
	// first.
	op := func(code byte, addr string, bits byte) []byte {
		return append(binary.BigEndian.AppendUint32([]byte{code}, uint32(packet.MustParseIP(addr))), bits)
	}
	f.Add(slices.Concat(op(0, "10.2.0.0", 16), op(0, "0.0.0.0", 0), op(2, "10.2.3.4", 0),
		op(1, "10.2.0.0", 16), op(3, "10.2.3.4", 0), op(1, "0.0.0.0", 0), op(2, "10.2.3.4", 0)))
	f.Add(slices.Concat(op(0, "10.0.0.0", 6), op(0, "10.64.0.0", 7), op(0, "10.0.0.0", 12),
		op(0, "10.0.0.0", 18), op(0, "10.0.0.0", 24), op(0, "10.0.0.0", 30), op(0, "10.0.0.1", 32),
		op(3, "10.0.0.1", 0), op(1, "10.0.0.0", 12), op(1, "10.0.0.0", 18), op(3, "10.64.0.1", 0),
		op(2, "10.0.0.2", 0)))
	f.Add(slices.Concat(op(0, "255.255.255.255", 32), op(4, "0.0.0.1", 31), op(4, "0.0.1.0", 23),
		op(6, "0.0.0.3", 0), op(1, "255.255.255.255", 32), op(7, "0.0.0.0", 0)))
	f.Add(slices.Concat(op(0, "10.0.0.0", 8), op(0, "10.2.0.0", 16), op(8, "10.2.3.0", 24),
		op(1, "10.2.0.0", 16), op(0, "10.2.0.0", 18), op(9, "10.0.0.0", 8), op(4, "0.0.64.0", 18),
		op(11, "10.2.3.4", 0), op(1, "10.2.3.0", 24), op(2, "10.2.3.4", 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 256
		ops := min(len(data)/6, maxOps)
		type held struct {
			tr   Trie[int]
			want routetest.Oracle[int]
		}
		var (
			b        = new(Trie[int]).Batch()
			want     = routetest.Oracle[int]{}
			snaps    []held
			prefixOf = map[int]routetest.Prefix{} // value -> the prefix it was added under
			probes   []packet.IP
			last     uint32
		)
		hold := func() { snaps = append(snaps, held{b.Trie(), maps.Clone(want)}) }
		check := func(what string, tr Trie[int], want routetest.Oracle[int], dst packet.IP) {
			w, ok := want.Lookup(dst)
			if got, gok := tr.Lookup(dst); gok != ok || got != w {
				t.Fatalf("%s: Lookup(%v) = (%d, %v), oracle (%d, %v)", what, dst, got, gok, w, ok)
			}
		}
		for step := 0; step < ops; step++ {
			op, raw, bits := data[6*step], binary.BigEndian.Uint32(data[6*step+1:]), data[6*step+5]%33
			if step == ops/2 || op&8 != 0 {
				hold()
			}
			d := raw
			if op&4 != 0 {
				d = last ^ raw>>(op>>4)
			}
			last = d
			p := routetest.Prefix{IP: Mask(packet.IP(d), bits), Bits: int(bits)}
			switch op & 3 {
			case 0:
				v := step
				b.Set(p.IP, bits, &v)
				want[p], prefixOf[v] = v, p
			case 1:
				_, live := want[p]
				before := b.t
				if ok := b.Delete(p.IP, bits); ok != live || (!ok && b.t != before) {
					t.Fatalf("step %d: Delete(%v/%d) = %v, oracle holds it: %v", step, p.IP, bits, ok, live)
				}
				delete(want, p)
			case 2:
				probes = append(probes, packet.IP(d))
				check(fmt.Sprintf("step %d", step), b.t, want, packet.IP(d))
			case 3:
				probes = append(probes, packet.IP(d))
				dsts := probes[max(0, len(probes)-17):]
				out := make([]*int, len(dsts))
				b.t.LookupBatch(dsts, out)
				for i, dst := range dsts {
					w, ok := want.Lookup(dst)
					if (out[i] != nil) != ok || (ok && *out[i] != w) {
						t.Fatalf("step %d: LookupBatch[%d](%v) = %v, oracle (%d, %v)", step, i, dst, out[i], w, ok)
					}
				}
			}
			if b.t.Len() != len(want) {
				t.Fatalf("step %d: Len %d, oracle %d", step, b.t.Len(), len(want))
			}
		}
		hold()
		for i, c := range snaps {
			name := fmt.Sprintf("held trie %d of %d", i+1, len(snaps))
			checkMinimal(t, c.tr)
			for _, dst := range probes {
				check(name, c.tr, c.want, dst)
			}
			var prev *routetest.Prefix
			walked := 0
			c.tr.Walk(func(v int) {
				walked++
				p := prefixOf[v]
				if c.want[p] != v {
					t.Fatalf("%s: Walk yields %d, not the value of %v/%d", name, v, p.IP, p.Bits)
				}
				if prev != nil && (prev.IP > p.IP || prev.IP == p.IP && prev.Bits >= p.Bits) {
					t.Fatalf("%s: Walk yields %v/%d after %v/%d", name, p.IP, p.Bits, prev.IP, prev.Bits)
				}
				check(name, c.tr, c.want, p.IP)
				check(name, c.tr, c.want, p.IP|packet.IP(^uint32(0)>>p.Bits))
				prev = &p
			})
			if walked != len(c.want) || c.tr.Len() != len(c.want) {
				t.Fatalf("%s: Walk yields %d values, Len %d, oracle %d", name, walked, c.tr.Len(), len(c.want))
			}
		}
	})
}

// FuzzParseCIDR fuzzes the prefix parser directly.
func FuzzParseCIDR(f *testing.F) {
	for _, s := range []string{"10.2.0.0/16", "0.0.0.0/0", "255.255.255.255/32", "10.2.0.0/33", "x/8", "1.2.3.4"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, bits, err := ParseCIDR(s)
		if err != nil {
			return
		}
		if bits < 0 || bits > 32 {
			t.Fatalf("ParseCIDR(%q) accepted bits %d", s, bits)
		}
		if strings.IndexByte(s, '/') < 0 {
			t.Fatalf("ParseCIDR(%q) accepted input without '/'", s)
		}
		_ = p
	})
}
