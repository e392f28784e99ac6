package route

import (
	"math/rand"
	"testing"

	"lvrm/internal/packet"
	"lvrm/internal/route/routetest"
)

// TestTrieSpineSharing checks clone-on-write: a change under one subtree
// must not copy unrelated subtrees.
func TestTrieSpineSharing(t *testing.T) {
	v := new(int)
	var t1 Trie[int]
	t1 = t1.With(ip("10.2.0.0"), 16, v).With(ip("192.168.0.0"), 16, v)
	sub1 := findNode(t1.root, ip("192.168.0.0"), 16)
	if sub1 == nil {
		t.Fatal("192.168.0.0/16 node not found")
	}
	kept := findNode(t1.root, ip("10.2.0.0"), 16)

	t2 := t1.With(ip("10.2.3.0"), 24, v)
	if sub2 := findNode(t2.root, ip("192.168.0.0"), 16); sub1 != sub2 {
		t.Fatal("unrelated subtree was copied by With")
	}
	if findNode(t2.root, ip("10.2.0.0"), 16) == kept {
		t.Fatal("With wrote the changed spine in place")
	}
	if findNode(t1.root, ip("10.2.0.0"), 16) != kept || t1.Len() != 2 || t2.Len() != 3 {
		t.Fatalf("receiver changed: Len %d, derived Len %d", t1.Len(), t2.Len())
	}

	t3, ok := t2.Without(ip("10.2.3.0"), 24)
	if !ok || findNode(t3.root, ip("192.168.0.0"), 16) != sub1 {
		t.Fatal("unrelated subtree was copied by Without")
	}
	if t4, ok := t3.Without(ip("10.9.0.0"), 16); ok || t4 != t3 {
		t.Fatal("Without of an absent prefix did not return the receiver")
	}
}

func findNode[V any](n *node[V], prefix packet.IP, bits uint8) *node[V] {
	p := uint32(prefix)
	for n != nil {
		if n.bits >= bits {
			if n.bits == bits && n.prefix == p {
				return n
			}
			return nil
		}
		if (p^n.prefix)>>(32-n.bits) != 0 && n.bits > 0 {
			return nil
		}
		n = n.child[(p>>(31-n.bits))&1]
	}
	return nil
}

// TestLookupBatchAgainstLookupAndOracle: LookupBatch gives every destination
// the value Lookup gives it and the linear-scan oracle gives it — on the
// empty trie, a lone default route, host routes only and random tables of
// nested prefixes, for vectors shorter than, equal to and longer than the
// lane count (a vector of 17 leaves a one-lane second pass, 64 four full
// ones), with destinations that are mostly covered by some prefix and by
// prefixes of every depth.
func TestLookupBatchAgainstLookupAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type table struct {
		trie Trie[int]
		want routetest.Oracle[int]
	}
	build := func(n int, bits func() int) table {
		tb := table{want: routetest.Oracle[int]{}}
		var last packet.IP
		for i := 0; i < n; i++ {
			b := bits()
			p := packet.IP(rng.Uint32())
			if i > 0 && rng.Intn(2) == 0 {
				p = last ^ packet.IP(rng.Uint32()>>uint(8+rng.Intn(24))) // near the last: nests and branches low
			}
			p, last = Mask(p, uint8(b)), p
			v := i
			tb.trie = tb.trie.With(p, uint8(b), &v)
			tb.want[routetest.Prefix{IP: p, Bits: b}] = v
		}
		return tb
	}
	tables := map[string]table{
		"empty":       build(0, nil),
		"default":     build(1, func() int { return 0 }),
		"host-routes": build(40, func() int { return 32 }),
		"one":         build(1, func() int { return 1 + rng.Intn(32) }),
		"random-30":   build(30, func() int { return rng.Intn(33) }),
		"random-400":  build(400, func() int { return rng.Intn(33) }),
		"no-default":  build(200, func() int { return 8 + rng.Intn(25) }),
	}
	for name, tb := range tables {
		var prefixes []routetest.Prefix
		for p := range tb.want {
			prefixes = append(prefixes, p)
		}
		for _, n := range []int{0, 1, 15, 16, 17, 64} {
			dsts := make([]packet.IP, n)
			for i := range dsts {
				dsts[i] = packet.IP(rng.Uint32())
				if len(prefixes) > 0 && rng.Intn(4) > 0 {
					p := prefixes[rng.Intn(len(prefixes))]
					dsts[i] = p.IP | packet.IP(uint64(rng.Uint32())>>p.Bits) // inside p
				}
			}
			sentinel := -1
			out := make([]*int, n+1)
			for i := range out {
				out[i] = &sentinel // stale results from the last use
			}
			tb.trie.LookupBatch(dsts, out)
			if out[n] != &sentinel {
				t.Fatalf("%s/n=%d: LookupBatch wrote past len(dsts)", name, n)
			}
			for i, dst := range dsts {
				want, ok := tb.want.Lookup(dst)
				scalar, sok := tb.trie.Lookup(dst)
				if sok != ok || scalar != want {
					t.Fatalf("%s: Lookup(%v) = (%d, %v), oracle (%d, %v)", name, dst, scalar, sok, want, ok)
				}
				switch {
				case !ok && out[i] != nil:
					t.Fatalf("%s/n=%d: LookupBatch[%d](%v) = %d, want no route", name, n, i, dst, *out[i])
				case ok && (out[i] == nil || *out[i] != want):
					t.Fatalf("%s/n=%d: LookupBatch[%d](%v) = %v, want %d", name, n, i, dst, out[i], want)
				}
			}
		}
	}
}

// edgeTrie builds routetest.EdgeFIB as a trie, with 64 Ki destinations under
// 10.2.0.0/16 to look up in it.
func edgeTrie() (Trie[int], []packet.IP) {
	rng := rand.New(rand.NewSource(1))
	var tr Trie[int]
	for i, p := range routetest.EdgeFIB(rng) {
		v := i
		tr = tr.With(p.IP, uint8(p.Bits), &v)
	}
	dsts := make([]packet.IP, 1<<16)
	for i := range dsts {
		dsts[i] = routetest.EdgeDst(rng)
	}
	return tr, dsts
}

var lookupSink int

// BenchmarkTrieLookup is BenchmarkTrieLookupBatch's partner: the same
// destinations through the same table, one dependent walk after another.
// Both are in the CI 0-alloc gate.
func BenchmarkTrieLookup(b *testing.B) {
	tr, dsts := edgeTrie()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := tr.Lookup(dsts[i&(len(dsts)-1)])
		lookupSink += v
	}
}

// BenchmarkTrieLookupBatch resolves the destinations sixteen to a call, a
// VRI quantum's worth; ns/op is per destination, as in BenchmarkTrieLookup.
func BenchmarkTrieLookupBatch(b *testing.B) {
	tr, dsts := edgeTrie()
	out := make([]*int, lanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += lanes {
		at := i & (len(dsts) - 1)
		tr.LookupBatch(dsts[at:at+lanes], out)
		lookupSink += *out[0]
	}
}
