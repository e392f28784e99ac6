package route

import (
	"math/bits"
	"slices"

	"lvrm/internal/packet"
)

// Trie is the repository's one longest-prefix-match structure: a persistent
// multibit trie from IPv4 prefixes to values. It branches on a chunk of six
// address bits per level — five 6-bit levels, then one 2-bit level — so a
// lookup visits at most six nodes. Each node is a Tree Bitmap node
// (Eatherton, Varghese and Dittia, 2004): a bitmap of the prefixes that end
// inside its chunk and a bitmap of the child chunks that exist, each
// indexing a dense slice by popcount. A node exists only where a prefix ends
// or two prefixes' paths part: a chain of nodes that would hold no prefix
// and one child is skipped, its child keeping the address bits above it.
//
// A Trie is an immutable value: With and Without return a new Trie that
// shares every untouched subtree with the receiver and copy only the nodes
// on the path from the root down to the change, so a Trie held by a reader
// (a pinned FIB generation, a cloned Table) keeps answering as it did, with
// no locks, whatever is derived from it later. The zero value is an empty
// trie.
//
// Table (static routes, one private handle per VRI) and rib.Gen (one
// published FIB generation) are both thin wrappers over a Trie.
type Trie[V any] struct {
	root *node[V]
	def  *V // the value of 0.0.0.0/0, which covers every address
	n    int
}

const (
	stride    = 6  // address bits a node branches on
	lastDepth = 30 // the depth of the last level, which has two bits left
)

// node is the chunk of stride address bits that starts at bit depth (0, 6,
// …, 30; the two bits at 30 are padded with zeros) under the address bits
// addr above it. A prefix of length depth+l whose chunk starts with the l
// bits v (l < stride; l ≤ 2 at depth 30) is bit 1<<l-1+v of pfx, and the
// child for chunk c is bit c of kids; vals and child hold one entry per set
// bit, in bit order. Every node holds a prefix or two children, so a child
// may start more than one level below its parent. The default route is the
// Trie's own, not the root's, so that a table of a few routes under it
// starts at the node that holds them. Nodes are never written after they are
// linked into a Trie.
type node[V any] struct {
	addr  uint32 // masked to depth bits
	depth uint8
	pfx   uint64
	kids  uint64
	vals  []*V
	child []*node[V]
}

// covering[c] has the pfx bit of every prefix that chunk c lies under.
var covering = func() (m [1 << stride]uint64) {
	for c := range m {
		for l := 0; l < stride; l++ {
			m[c] |= 1 << (1<<l - 1 + c>>(stride-l))
		}
	}
	return m
}()

// Mask clears the host bits of prefix beyond bits (0..32).
func Mask(prefix packet.IP, bits uint8) packet.IP {
	return prefix &^ packet.IP(^uint32(0)>>bits)
}

// Len returns the number of prefixes in the trie.
func (t Trie[V]) Len() int { return t.n }

// chunk returns the stride bits of d from bit depth on. Here and below, a
// shift count masked to its operand's width is unchanged by the mask, which
// spares the compiler's handling of counts out of range.
func chunk(d uint32, depth uint8) uint {
	return uint(d << (depth & 31) >> (32 - stride))
}

// place returns the depth of the node that prefix p/b ends in and its bit in
// that node's pfx.
func place(p uint32, b uint8) (depth uint8, pos uint) {
	depth = min(b/stride*stride, lastDepth)
	l := b - depth
	return depth, 1<<l - 1 + chunk(p, depth)>>(stride-l)
}

// below returns how many bits of set lie below bit i: the index in a dense
// slice of the entry for bit i.
func below(set uint64, i uint) int {
	return bits.OnesCount64(set & (1<<(i&63) - 1))
}

// covers reports whether d lies under n's address bits, so that a walk
// towards d that has reached n goes on through it.
func (n *node[V]) covers(d uint32) bool {
	return uint64(d^n.addr)>>((32-n.depth)&63) == 0
}

// longest returns the value of the longest prefix in m, a nonempty subset of
// n's prefixes.
func (n *node[V]) longest(m uint64) *V {
	if n.pfx&(n.pfx-1) == 0 { // one prefix, as in most nodes: no rank to count
		return n.vals[0]
	}
	return n.vals[below(n.pfx, uint(63-bits.LeadingZeros64(m)))]
}

// next returns n's child for chunk c, nil when it has none.
func (n *node[V]) next(c uint) *node[V] {
	if n.kids&(1<<(c&63)) == 0 {
		return nil
	}
	return n.child[below(n.kids, c)]
}

// Lookup returns the value of the longest prefix covering dst. It is
// allocation-free and never blocks.
func (t Trie[V]) Lookup(dst packet.IP) (V, bool) {
	d, best := uint32(dst), t.def
	// depth is where n starts when its parent is on the level above. Only a
	// node below a skipped chain starts deeper; only its address bits above
	// the chunk are unchecked, and only its chunk waits for n.depth.
	for n, depth := t.root, uint8(0); n != nil; depth += stride {
		if n.depth != depth {
			if !n.covers(d) {
				break
			}
			depth = n.depth
		}
		c := chunk(d, depth)
		if m := n.pfx & covering[c]; m != 0 {
			best = n.longest(m)
		}
		n = n.next(c)
	}
	if best == nil {
		var zero V
		return zero, false
	}
	return *best, true
}

// lanes is how many lookups LookupBatch walks side by side.
const lanes = 16

// LookupBatch is Lookup for a vector of destinations: out[i] becomes the
// value of the longest prefix covering dsts[i] — the trie's own copy, not to
// be written through — or nil when none does. out must be at least as long
// as dsts.
//
// The walk is level-synchronous: up to lanes lookups advance one node per
// round, and a lookup that has ended gives up its lane. One lookup is a chain
// of dependent node loads, each a likely cache miss in a table of any size;
// side by side, a round's loads are independent of each other, so the lanes
// wait for their misses together instead of in turn.
func (t Trie[V]) LookupBatch(dsts []packet.IP, out []*V) {
	for base := 0; base < len(dsts); base += lanes {
		var (
			at  [lanes]*node[V] // the node each live lane visits next
			idx [lanes]int      // the destination each live lane serves
		)
		live := 0
		for i := base; i < len(dsts) && i < base+lanes; i++ {
			out[i] = t.def
			if t.root != nil {
				at[live], idx[live] = t.root, i
				live++
			}
		}
		for depth := uint8(0); live > 0; depth += stride {
			kept := 0
			for l := 0; l < live; l++ {
				n, i := at[l], idx[l]
				d, nd := uint32(dsts[i]), depth
				if n.depth != depth {
					if !n.covers(d) {
						continue
					}
					nd = n.depth
				}
				c := chunk(d, nd)
				if m := n.pfx & covering[c]; m != 0 {
					out[i] = n.longest(m)
				}
				if n = n.next(c); n != nil {
					at[kept], idx[kept] = n, i
					kept++
				}
			}
			live = kept
		}
	}
}

// With returns a trie equal to t with prefix/bits mapped to *v (added or
// replaced). The trie keeps v and never writes through it; neither may the
// caller. bits must be 0..32.
func (t Trie[V]) With(prefix packet.IP, bits uint8, v *V) Trie[V] {
	if bits == 0 {
		if t.def == nil {
			t.n++
		}
		t.def = v
		return t
	}
	root, added := insert(t.root, uint32(Mask(prefix, bits)), bits, v)
	if added {
		t.n++
	}
	t.root = root
	return t
}

// Without returns a trie equal to t with exactly prefix/bits removed,
// reporting whether it was present (when not, the result is t itself).
func (t Trie[V]) Without(prefix packet.IP, bits uint8) (Trie[V], bool) {
	if bits == 0 {
		if t.def == nil {
			return t, false
		}
		t.def = nil
		t.n--
		return t, true
	}
	root, ok := remove(t.root, uint32(Mask(prefix, bits)), bits)
	if ok {
		t.root = root
		t.n--
	}
	return t, ok
}

// Walk calls fn for every value in pre-order: a prefix before the prefixes
// it covers, lower addresses first.
func (t Trie[V]) Walk(fn func(V)) {
	if t.def != nil {
		fn(*t.def)
	}
	walk(t.root, fn)
}

func walk[V any](n *node[V], fn func(V)) {
	if n == nil {
		return
	}
	for c := uint(0); c < 1<<stride; c++ {
		// The prefixes whose range starts at chunk c, shortest first, then
		// the subtree for c, whose prefixes are all longer.
		for l := uint(0); l < stride; l++ {
			if c&(1<<(stride-l)-1) != 0 {
				continue
			}
			if pos := 1<<l - 1 + c>>(stride-l); n.pfx&(1<<pos) != 0 {
				fn(*n.vals[below(n.pfx, pos)])
			}
		}
		walk(n.next(c), fn)
	}
}

// insert returns the root of a trie equal to n with p/b -> v added or
// replaced, and whether it was an addition. p must be masked to b bits, and
// b must be 1..32. It copies the nodes on the path down to p/b and
// allocates at most two more: a node for p/b and, when p/b's path leaves
// n's, one where they part.
func insert[V any](n *node[V], p uint32, b uint8, v *V) (*node[V], bool) {
	depth, pos := place(p, b)
	if n == nil {
		return &node[V]{addr: uint32(Mask(packet.IP(p), depth)), depth: depth, pfx: 1 << pos, vals: []*V{v}}, true
	}
	if n.depth > depth || !n.covers(p) {
		// p/b ends above n or off its path: a node at the deepest level both
		// paths reach takes n as its child, then p/b.
		at := min(commonPrefixLen(n.addr, p, min(n.depth, b)), depth) / stride * stride
		return insert(&node[V]{addr: uint32(Mask(packet.IP(p), at)), depth: at, kids: 1 << chunk(n.addr, at), child: []*node[V]{n}}, p, b, v)
	}
	c := *n
	if n.depth == depth {
		i := below(n.pfx, pos)
		if n.pfx&(1<<pos) != 0 {
			c.vals = replaced(n.vals, i, v)
			return &c, false
		}
		c.pfx |= 1 << pos
		c.vals = slices.Concat(n.vals[:i], []*V{v}, n.vals[i:])
		return &c, true
	}
	k := chunk(p, n.depth)
	i := below(n.kids, k)
	if n.kids&(1<<k) == 0 {
		leaf, _ := insert(nil, p, b, v)
		c.kids |= 1 << k
		c.child = slices.Concat(n.child[:i], []*node[V]{leaf}, n.child[i:])
		return &c, true
	}
	nc, added := insert(n.child[i], p, b, v)
	c.child = replaced(n.child, i, nc)
	return &c, added
}

// remove returns the root of a trie equal to n with the value at exactly
// p/b deleted, reporting whether it existed; b must be 1..32. A node left
// with no prefix is removed when it has no child and replaced by its child
// when it has one, so the trie stays minimal.
func remove[V any](n *node[V], p uint32, b uint8) (*node[V], bool) {
	depth, pos := place(p, b)
	if n == nil || n.depth > depth || !n.covers(p) {
		return n, false // p/b is not at or under this node
	}
	pfx, kids, vals, child := n.pfx, n.kids, n.vals, n.child
	if n.depth == depth {
		if pfx&(1<<pos) == 0 {
			return n, false
		}
		i := below(pfx, pos)
		pfx &^= 1 << pos
		vals = slices.Concat(vals[:i], vals[i+1:])
	} else {
		k := chunk(p, n.depth)
		if kids&(1<<k) == 0 {
			return n, false
		}
		i := below(kids, k)
		nc, ok := remove(child[i], p, b)
		switch {
		case !ok:
			return n, false
		case nc != nil:
			child = replaced(child, i, nc)
		default:
			kids &^= 1 << k
			child = slices.Concat(child[:i], child[i+1:])
		}
	}
	if pfx == 0 {
		switch bits.OnesCount64(kids) {
		case 0:
			return nil, true
		case 1:
			return child[0], true
		}
	}
	return &node[V]{addr: n.addr, depth: n.depth, pfx: pfx, kids: kids, vals: vals, child: child}, true
}

// replaced returns a copy of s with s[i] replaced by x.
func replaced[T any](s []T, i int, x T) []T {
	s = slices.Clone(s)
	s[i] = x
	return s
}

// commonPrefixLen returns how many leading bits a and b share, capped at max.
func commonPrefixLen(a, b uint32, max uint8) uint8 {
	if x := a ^ b; x != 0 {
		if l := uint8(bits.LeadingZeros32(x)); l < max {
			return l
		}
	}
	return max
}
