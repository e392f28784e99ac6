package routetest

import (
	"math/rand"

	"lvrm/internal/packet"
)

// EdgeFIB returns the prefix set the lookup benchmarks of route, rib and vr
// share, shaped like the wall-clock benchmark's flow-fib table (benchmark/
// generateRoutes): a default route, 10.2.0.0/16, 10 000 random /16../24
// outside it and 2 500 more-specifics (/18../28) under it — about 12 500
// prefixes, so that a lookup for a 10.2.x.y destination (EdgeDst) walks down
// to the trie's deepest levels in a table far larger than L2.
func EdgeFIB(rng *rand.Rand) []Prefix {
	seen := map[Prefix]bool{}
	var out []Prefix
	add := func(p uint32, bits int) {
		k := Prefix{IP: packet.IP(p &^ uint32(uint64(1)<<(32-bits)-1)), Bits: bits}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	base := uint32(packet.IPv4(10, 2, 0, 0))
	add(0, 0)
	add(base, 16)
	for len(out) < 2+10000 {
		if p := rng.Uint32(); p>>16 != base>>16 {
			add(p, 16+rng.Intn(9))
		}
	}
	for len(out) < 2+10000+2500 {
		add(base|uint32(64+rng.Intn(192))<<8|uint32(rng.Intn(256)), 18+rng.Intn(11))
	}
	return out
}

// EdgeDst returns a random destination under 10.2.0.0/16.
func EdgeDst(rng *rand.Rand) packet.IP {
	return packet.IPv4(10, 2, byte(rng.Intn(256)), byte(rng.Intn(256)))
}
