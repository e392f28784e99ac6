package route

import (
	"math/bits"
	"slices"
	"sync/atomic"

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
// A Trie is an immutable value: a Batch derives a new Trie from it that
// shares every untouched subtree with the receiver and copies only the nodes
// on the paths from the root down to its changes, each node at most once, so
// a Trie held by a reader (a pinned FIB generation, a cloned Table) keeps
// answering as it did, with no locks, whatever is derived from it later.
// With and Without are batches of one change. The zero value is an empty
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
// starts at the node that holds them. A node is written only by the batch
// that made it, and never once that batch has returned a Trie.
type node[V any] struct {
	addr  uint32 // masked to depth bits
	depth uint8
	own   uint64 // the batch that made the node, which may write it in place
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
	if best := t.longestFor(dst); best != nil {
		return *best, true
	}
	var zero V
	return zero, false
}

// LookupBatch is Lookup for a vector of destinations: out[i] becomes the
// value of the longest prefix covering dsts[i] — the trie's own copy, not to
// be written through — or nil when none does. out must be at least as long
// as dsts.
func (t Trie[V]) LookupBatch(dsts []packet.IP, out []*V) {
	for i, dst := range dsts {
		out[i] = t.longestFor(dst)
	}
}

// longestFor returns the value of the longest prefix covering dst, nil when
// none does.
func (t Trie[V]) longestFor(dst packet.IP) *V {
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
	return best
}

// With returns a trie equal to t with prefix/bits mapped to *v (added or
// replaced). The trie keeps v and never writes through it; neither may the
// caller. bits must be 0..32.
func (t Trie[V]) With(prefix packet.IP, bits uint8, v *V) Trie[V] {
	b := Batch[V]{t: t}
	b.Set(prefix, bits, v)
	return b.Trie()
}

// Without returns a trie equal to t with exactly prefix/bits removed,
// reporting whether it was present (when not, the result is t itself).
func (t Trie[V]) Without(prefix packet.IP, bits uint8) (Trie[V], bool) {
	b := Batch[V]{t: t}
	ok := b.Delete(prefix, bits)
	return b.Trie(), ok
}

// Batch derives one trie from another through any number of changes. It
// copies a node of its base at most once, before its first write, and
// writes in place the nodes it made or copied, so a change costs the nodes
// on its path only where no earlier change of the batch has copied them
// already. A Batch is used from one goroutine and must not be copied.
type Batch[V any] struct {
	t  Trie[V]
	id uint64 // stamps the nodes this batch may write; 0 until it writes one
}

// batches hands each batch that writes a node its own ID; 0 is never one.
var batches atomic.Uint64

// Batch starts a batch of changes to t. t itself is never written.
func (t Trie[V]) Batch() *Batch[V] { return &Batch[V]{t: t} }

// Trie returns the trie the changes so far have built. It ends the batch's
// ownership of the nodes it made, so the returned trie is immutable like any
// other; later changes through b copy what they write.
func (b *Batch[V]) Trie() Trie[V] {
	b.id = 0
	return b.t
}

// Set maps prefix/bits to *v (added or replaced). The trie keeps v and
// never writes through it; neither may the caller. bits must be 0..32.
func (b *Batch[V]) Set(prefix packet.IP, bits uint8, v *V) {
	if bits == 0 {
		if b.t.def == nil {
			b.t.n++
		}
		b.t.def = v
		return
	}
	root, added := b.insert(b.t.root, uint32(Mask(prefix, bits)), bits, v)
	if added {
		b.t.n++
	}
	b.t.root = root
}

// Delete removes exactly prefix/bits, reporting whether it was present.
func (b *Batch[V]) Delete(prefix packet.IP, bits uint8) bool {
	if bits == 0 {
		if b.t.def == nil {
			return false
		}
		b.t.def = nil
		b.t.n--
		return true
	}
	root, ok := b.remove(b.t.root, uint32(Mask(prefix, bits)), bits)
	if ok {
		b.t.root = root
		b.t.n--
	}
	return ok
}

// made returns n stamped as this batch's own.
func (b *Batch[V]) made(n *node[V]) *node[V] {
	if b.id == 0 {
		b.id = batches.Add(1)
	}
	n.own = b.id
	return n
}

// writable returns n when the batch owns it, and otherwise a copy it owns,
// with copies of n's slices so that it may write those in place too.
func (b *Batch[V]) writable(n *node[V]) *node[V] {
	if b.id != 0 && n.own == b.id {
		return n
	}
	c := *n
	c.vals, c.child = slices.Clone(n.vals), slices.Clone(n.child)
	return b.made(&c)
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

// insert returns the root of a trie equal to n with p/pl -> v added or
// replaced, and whether it was an addition. p must be masked to pl bits, and
// pl must be 1..32. It makes writable the nodes on the path down to p/pl and
// allocates at most two more: a node for p/pl and, when p/pl's path leaves
// n's, one where they part.
func (b *Batch[V]) insert(n *node[V], p uint32, pl uint8, v *V) (*node[V], bool) {
	depth, pos := place(p, pl)
	if n == nil {
		return b.made(&node[V]{addr: uint32(Mask(packet.IP(p), depth)), depth: depth, pfx: 1 << pos, vals: []*V{v}}), true
	}
	if n.depth > depth || !n.covers(p) {
		// p/pl ends above n or off its path: a node at the deepest level both
		// paths reach takes n as its child, then p/pl.
		at := min(commonPrefixLen(n.addr, p, min(n.depth, pl)), depth) / stride * stride
		return b.insert(b.made(&node[V]{addr: uint32(Mask(packet.IP(p), at)), depth: at, kids: 1 << chunk(n.addr, at), child: []*node[V]{n}}), p, pl, v)
	}
	n = b.writable(n)
	if n.depth == depth {
		i := below(n.pfx, pos)
		if n.pfx&(1<<pos) != 0 {
			n.vals[i] = v
			return n, false
		}
		n.pfx |= 1 << pos
		n.vals = inserted(n.vals, i, v)
		return n, true
	}
	k := chunk(p, n.depth)
	i := below(n.kids, k)
	if n.kids&(1<<k) == 0 {
		leaf, _ := b.insert(nil, p, pl, v)
		n.kids |= 1 << k
		n.child = inserted(n.child, i, leaf)
		return n, true
	}
	var added bool
	n.child[i], added = b.insert(n.child[i], p, pl, v)
	return n, added
}

// remove returns the root of a trie equal to n with the value at exactly
// p/pl deleted, reporting whether it existed; pl must be 1..32. It makes
// nothing writable when p/pl is absent. A node left with no prefix is removed
// when it has no child and replaced by its child when it has one, so the
// trie stays minimal.
func (b *Batch[V]) remove(n *node[V], p uint32, pl uint8) (*node[V], bool) {
	depth, pos := place(p, pl)
	if n == nil || n.depth > depth || !n.covers(p) {
		return n, false // p/pl is not at or under this node
	}
	if n.depth == depth {
		if n.pfx&(1<<pos) == 0 {
			return n, false
		}
		i := below(n.pfx, pos)
		n = b.writable(n)
		n.pfx &^= 1 << pos
		n.vals = slices.Delete(n.vals, i, i+1)
	} else {
		k := chunk(p, n.depth)
		if n.kids&(1<<k) == 0 {
			return n, false
		}
		i := below(n.kids, k)
		nc, ok := b.remove(n.child[i], p, pl)
		if !ok {
			return n, false
		}
		n = b.writable(n)
		if nc != nil {
			n.child[i] = nc
		} else {
			n.kids &^= 1 << k
			n.child = slices.Delete(n.child, i, i+1)
		}
	}
	if n.pfx == 0 {
		switch bits.OnesCount64(n.kids) {
		case 0:
			return nil, true
		case 1:
			return n.child[0], true
		}
	}
	return n, true
}

// inserted returns s with x inserted at i: in place when s has room, which
// only a slice of a writable node is given, and otherwise in a new array no
// larger than the result needs, so a published node holds no spare
// capacity beyond its allocation's size class.
func inserted[T any](s []T, i int, x T) []T {
	if len(s) < cap(s) {
		return slices.Insert(s, i, x)
	}
	return slices.Concat(s[:i], []T{x}, s[i:])
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
