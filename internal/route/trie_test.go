package route

import (
	"math/bits"
	"math/rand"
	"testing"

	"lvrm/internal/packet"
	"lvrm/internal/route/routetest"
)

// TestTrieSpineSharing checks clone-on-write: a change under one subtree
// must copy the nodes on its path and no others, and leave the receiver as
// it was.
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
		t.Fatal("With wrote the changed path in place")
	}
	if findNode(t1.root, ip("10.2.0.0"), 16) != kept || findNode(t1.root, ip("10.2.3.0"), 24) != nil ||
		t1.Len() != 2 || t2.Len() != 3 {
		t.Fatalf("receiver changed by With: Len %d, derived Len %d", t1.Len(), t2.Len())
	}

	held := findNode(t2.root, ip("10.2.3.0"), 24)
	t3, ok := t2.Without(ip("10.2.3.0"), 24)
	if !ok || findNode(t3.root, ip("192.168.0.0"), 16) != sub1 {
		t.Fatal("unrelated subtree was copied by Without")
	}
	if findNode(t3.root, ip("10.2.3.0"), 24) != nil || t3.Len() != 2 {
		t.Fatalf("Without left 10.2.3.0/24 in place: Len %d", t3.Len())
	}
	if findNode(t2.root, ip("10.2.3.0"), 24) != held || t2.Len() != 3 {
		t.Fatalf("receiver changed by Without: Len %d", t2.Len())
	}
	if t4, ok := t3.Without(ip("10.9.0.0"), 16); ok || t4 != t3 {
		t.Fatal("Without of an absent prefix did not return the receiver")
	}
}

// TestBatchCopiesEachNodeOnce: a batch copies a node of its base at most
// once, however many of its changes pass through it. The 63 prefixes that
// end in one last-but-one-level node of a 12 500-route trie are replaced
// for the allocations of one replacement — the copy of their path — and 64
// /24s added under one /18 cost well under what 64 Withs do, which copy the
// shared path once each.
func TestBatchCopiesEachNodeOnce(t *testing.T) {
	tr, _ := edgeTrie()
	var full []routetest.Prefix // every prefix of the depth-24 node of 10.2.3.0
	for l := 0; l < stride; l++ {
		for c := 0; c < 1<<l; c++ {
			full = append(full, routetest.Prefix{IP: ip("10.2.3.0") | packet.IP(c<<(8-l)), Bits: 24 + l})
		}
	}
	var adds []routetest.Prefix
	for c := 0; c < 64; c++ {
		adds = append(adds, routetest.Prefix{IP: ip("10.2.0.0") | packet.IP(c<<8), Bits: 24})
	}
	v := new(int)
	for _, p := range full {
		tr = tr.With(p.IP, uint8(p.Bits), v)
	}
	batch := func(ps []routetest.Prefix) float64 {
		return testing.AllocsPerRun(20, func() {
			b := Batch[int]{t: tr}
			for _, p := range ps {
				b.Set(p.IP, uint8(p.Bits), v)
			}
			b.Trie()
		})
	}
	withs := func(ps []routetest.Prefix) float64 {
		return testing.AllocsPerRun(20, func() {
			t2 := tr
			for _, p := range ps {
				t2 = t2.With(p.IP, uint8(p.Bits), v)
			}
		})
	}
	if one, all := withs(full[:1]), batch(full); all != one {
		t.Errorf("replacing the %d prefixes of one node in one batch: %v allocations, one replacement %v", len(full), all, one)
	}
	if all, each := batch(adds), withs(adds); 3*all > each {
		t.Errorf("adding %d /24s in one batch: %v allocations, one With each %v", len(adds), all, each)
	}
}

// findNode returns the node prefix/bits ends in, nil when the trie does not
// hold it.
func findNode[V any](n *node[V], prefix packet.IP, bits uint8) *node[V] {
	p := uint32(prefix)
	depth, pos := place(p, bits)
	for ; n != nil && n.depth <= depth && n.covers(p); n = n.next(chunk(p, n.depth)) {
		if n.depth == depth {
			if n.pfx&(1<<pos) == 0 {
				return nil
			}
			return n
		}
	}
	return nil
}

// checkMinimal fails unless every node reachable from tr's root is well
// formed — a dense slice entry per bitmap bit, children below their parent
// and under its chunk — and minimal: it holds a prefix or two children.
func checkMinimal[V any](t *testing.T, tr Trie[V]) {
	t.Helper()
	n := 0
	var visit func(nd *node[V])
	visit = func(nd *node[V]) {
		switch {
		case nd.pfx == 0 && nd.kids == 0:
			t.Fatalf("empty node at depth %d", nd.depth)
		case nd.pfx == 0 && bits.OnesCount64(nd.kids) == 1:
			t.Fatalf("unskipped node at depth %d: no prefix, one child", nd.depth)
		case len(nd.vals) != bits.OnesCount64(nd.pfx) || len(nd.child) != bits.OnesCount64(nd.kids):
			t.Fatalf("node at depth %d: %d vals for %#x, %d children for %#x", nd.depth, len(nd.vals), nd.pfx, len(nd.child), nd.kids)
		case nd.depth%stride != 0 || nd.depth > lastDepth || Mask(packet.IP(nd.addr), nd.depth) != packet.IP(nd.addr):
			t.Fatalf("node at depth %d has address %#x", nd.depth, nd.addr)
		case nd.depth == lastDepth && (nd.kids != 0 || nd.pfx >= 1<<7):
			t.Fatalf("last-level node holds %#x, children %#x", nd.pfx, nd.kids)
		case nd.depth == 0 && nd.pfx&1 != 0:
			t.Fatal("the default route is in the root node")
		}
		n += len(nd.vals)
		for c := uint(0); c < 1<<stride; c++ {
			ch := nd.next(c)
			if ch == nil {
				continue
			}
			if ch.depth <= nd.depth || !nd.covers(ch.addr) || chunk(ch.addr, nd.depth) != c {
				t.Fatalf("child %d of the node at depth %d, address %#x: depth %d, address %#x", c, nd.depth, nd.addr, ch.depth, ch.addr)
			}
			visit(ch)
		}
	}
	if tr.root != nil {
		visit(tr.root)
	}
	if tr.def != nil {
		n++
	}
	if n != tr.Len() {
		t.Fatalf("%d values reachable, Len %d", n, tr.Len())
	}
}

// TestTrieMinimal: through a random stream of adds and removes of nested
// prefixes at every length, no node is empty, none holds no prefix and one
// child, and removing every prefix leaves the empty trie. A lookup in the
// two-route tables of the static map files visits one node.
func TestTrieMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tr Trie[int]
	var live []routetest.Prefix
	have := map[routetest.Prefix]bool{}
	last := packet.IP(rng.Uint32())
	for step := 0; step < 4000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(have, p)
			var ok bool
			if tr, ok = tr.Without(p.IP, uint8(p.Bits)); !ok {
				t.Fatalf("step %d: Without(%v/%d) found nothing", step, p.IP, p.Bits)
			}
		} else {
			b := rng.Intn(33)
			last ^= packet.IP(rng.Uint32() >> uint(rng.Intn(33)))
			p := routetest.Prefix{IP: Mask(last, uint8(b)), Bits: b}
			v := step
			tr = tr.With(p.IP, uint8(b), &v)
			if !have[p] {
				have[p] = true
				live = append(live, p)
			}
		}
		checkMinimal(t, tr)
	}
	for _, p := range live {
		var ok bool
		if tr, ok = tr.Without(p.IP, uint8(p.Bits)); !ok {
			t.Fatalf("Without(%v/%d) found nothing", p.IP, p.Bits)
		}
		checkMinimal(t, tr)
	}
	if tr.root != nil || tr.def != nil || tr.Len() != 0 {
		t.Fatalf("emptied trie: root %p, default %p, Len %d", tr.root, tr.def, tr.Len())
	}

	for _, tc := range []struct {
		routes []string
		dst    string
	}{
		{[]string{"10.2.0.0/16", "0.0.0.0/0"}, "10.2.3.4"},
		{[]string{"10.1.0.0/16", "10.2.0.0/16"}, "10.2.3.4"},
	} {
		var tr Trie[int]
		for _, r := range tc.routes {
			p, b, err := ParseCIDR(r)
			if err != nil {
				t.Fatal(err)
			}
			tr = tr.With(p, uint8(b), new(int))
		}
		visits, d := 0, uint32(ip(tc.dst))
		for n := tr.root; n != nil && n.covers(d); n = n.next(chunk(d, n.depth)) {
			visits++
		}
		if visits != 1 {
			t.Errorf("%v: a lookup of %s visits %d nodes, want 1", tc.routes, tc.dst, visits)
		}
	}
}

var strideEdges = []int{0, 5, 6, 7, 11, 12, 17, 18, 23, 24, 29, 30, 31, 32}

// TestLookupBatchAgainstLookupAndOracle: LookupBatch gives every destination
// the value Lookup gives it and the linear-scan oracle gives it — on the
// empty trie, a lone default route, host routes only, random tables of
// nested prefixes and prefixes at the lengths next to a level boundary, for
// vectors of 0 to 64 destinations that are mostly covered by some prefix and
// by prefixes of every depth.
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
		// The lengths on either side of each level's chunk, where a
		// multibit trie places a prefix in the wrong node.
		"stride-edges": build(300, func() int { return strideEdges[rng.Intn(len(strideEdges))] }),
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
	out := make([]*int, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(out) {
		at := i & (len(dsts) - 1)
		tr.LookupBatch(dsts[at:at+len(out)], out)
		lookupSink += *out[0]
	}
}
