package route

import (
	"math/bits"

	"lvrm/internal/packet"
)

// Trie is the repository's one longest-prefix-match structure: a persistent
// path-compressed binary trie from IPv4 prefixes to values. A node exists
// only where a prefix terminates or two prefixes' paths diverge. A Trie is
// an immutable value: With and Without return a new Trie that shares every
// untouched subtree with the receiver and copy only the spine from the root
// down to the change, so a Trie held by a reader (a pinned FIB generation, a
// cloned Table) keeps answering as it did, with no locks, whatever is
// derived from it later. The zero value is an empty trie.
//
// Table (static routes, one private handle per VRI) and rib.Gen (one
// published FIB generation) are both thin wrappers over a Trie.
type Trie[V any] struct {
	root *node[V]
	n    int
}

// node carries the full path from the root in prefix (left-aligned, masked
// to bits). val is non-nil when a prefix terminates exactly here; otherwise
// the node is only a branch point. Nodes are never written after they are
// linked into a Trie.
type node[V any] struct {
	prefix uint32
	bits   uint8
	val    *V
	child  [2]*node[V]
}

// Mask clears the host bits of prefix beyond bits (0..32).
func Mask(prefix packet.IP, bits uint8) packet.IP {
	return prefix &^ packet.IP(^uint32(0)>>bits)
}

// Len returns the number of prefixes in the trie.
func (t Trie[V]) Len() int { return t.n }

// covers reports whether d lies under n's path, so that a walk towards d
// that has reached n goes on through it.
func (n *node[V]) covers(d uint32) bool {
	return n.bits == 0 || (d^n.prefix)>>(32-n.bits) == 0
}

// next returns the node a walk towards d visits after n, which covers d: nil
// when n is a host route or has nothing below on d's side.
func (n *node[V]) next(d uint32) *node[V] {
	if n.bits == 32 {
		return nil
	}
	return n.child[(d>>(31-n.bits))&1]
}

// Lookup returns the value of the longest prefix covering dst. It is
// allocation-free and never blocks.
func (t Trie[V]) Lookup(dst packet.IP) (V, bool) {
	var best *V
	d := uint32(dst)
	for n := t.root; n != nil && n.covers(d); n = n.next(d) {
		if n.val != nil {
			best = n.val
		}
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
			out[i] = nil
			if t.root != nil {
				at[live], idx[live] = t.root, i
				live++
			}
		}
		for live > 0 {
			kept := 0
			for l := 0; l < live; l++ {
				n, i := at[l], idx[l]
				d := uint32(dsts[i])
				if !n.covers(d) {
					continue
				}
				if n.val != nil {
					out[i] = n.val
				}
				if n = n.next(d); n != nil {
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
	root, ok := remove(t.root, uint32(Mask(prefix, bits)), bits)
	if ok {
		t.root = root
		t.n--
	}
	return t, ok
}

// Walk calls fn for every value in pre-order: a prefix before the prefixes
// it covers, the 0-branch before the 1-branch.
func (t Trie[V]) Walk(fn func(V)) { walk(t.root, fn) }

func walk[V any](n *node[V], fn func(V)) {
	if n == nil {
		return
	}
	if n.val != nil {
		fn(*n.val)
	}
	walk(n.child[0], fn)
	walk(n.child[1], fn)
}

// insert returns the root of a trie equal to n with p/b -> v added or
// replaced, and whether it was an addition. p must be masked to b bits. At
// most two fresh structural nodes are allocated (a leaf and, when paths
// diverge mid-edge, one split node); the rest are spine copies.
func insert[V any](n *node[V], p uint32, b uint8, v *V) (*node[V], bool) {
	if n == nil {
		return &node[V]{prefix: p, bits: b, val: v}, true
	}
	cpl := commonPrefixLen(n.prefix, p, min(n.bits, b))
	if cpl == n.bits {
		// p lies on or below this node's path.
		c := *n
		added := false
		if b == n.bits {
			added = n.val == nil
			c.val = v
		} else {
			bit := (p >> (31 - n.bits)) & 1
			c.child[bit], added = insert(n.child[bit], p, b, v)
		}
		return &c, added
	}
	if cpl == b {
		// p is a strict prefix of this node's path: new node above n.
		nn := &node[V]{prefix: p, bits: b, val: v}
		nn.child[(n.prefix>>(31-b))&1] = n
		return nn, true
	}
	// Paths diverge mid-edge: split at the common prefix.
	sp := &node[V]{prefix: uint32(Mask(packet.IP(p), cpl)), bits: cpl}
	sp.child[(n.prefix>>(31-cpl))&1] = n
	sp.child[(p>>(31-cpl))&1] = &node[V]{prefix: p, bits: b, val: v}
	return sp, true
}

// remove returns the root of a trie equal to n with the value at exactly
// p/b deleted, reporting whether it existed. Value-less nodes left with at
// most one child are compressed away (a child's prefix already encodes the
// full path from the root) so the trie stays minimal.
func remove[V any](n *node[V], p uint32, b uint8) (*node[V], bool) {
	if n == nil || b < n.bits || commonPrefixLen(n.prefix, p, n.bits) < n.bits {
		return n, false // p is not at or under this node
	}
	val, child := n.val, n.child
	if b == n.bits {
		// Exact node: n.prefix == p since both are masked to b bits.
		if val == nil {
			return n, false
		}
		val = nil
	} else {
		bit := (p >> (31 - n.bits)) & 1
		nc, ok := remove(child[bit], p, b)
		if !ok {
			return n, false
		}
		child[bit] = nc
	}
	if val == nil {
		switch {
		case child[0] == nil:
			return child[1], true // nil when both are
		case child[1] == nil:
			return child[0], true
		}
	}
	return &node[V]{prefix: n.prefix, bits: n.bits, val: val, child: child}, true
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
