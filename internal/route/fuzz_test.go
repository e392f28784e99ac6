package route

import (
	"bytes"
	"strings"
	"testing"
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
