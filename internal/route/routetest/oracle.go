// Package routetest holds what the tests of route.Trie and its wrappers
// (route.Table, rib.Gen, the vr engines) share: the reference implementation
// the longest-prefix-match property tests compare them against — a map of
// prefixes answered by linear scan, sharing no code with the trie — and the
// table shape their lookup benchmarks are run on.
package routetest

import "lvrm/internal/packet"

// Prefix is one prefix/length pair, host bits clear.
type Prefix struct {
	IP   packet.IP
	Bits int
}

// Oracle maps prefixes to values; its Lookup is the LPM definition itself.
type Oracle[V any] map[Prefix]V

// Lookup scans every prefix and returns the value of the longest one that
// covers dst.
func (o Oracle[V]) Lookup(dst packet.IP) (best V, ok bool) {
	bestBits := -1
	for p, v := range o {
		if uint64(dst)>>(32-p.Bits) == uint64(p.IP)>>(32-p.Bits) && p.Bits > bestBits {
			best, bestBits, ok = v, p.Bits, true
		}
	}
	return best, ok
}
