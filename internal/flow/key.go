package flow

import (
	"encoding/binary"

	"lvrm/internal/packet"
)

// KeyOf classifies a frame into a 64-bit flow key. Parseable IPv4 frames use
// the 5-tuple hash, so both directions of different transport connections and
// retransmissions of the same connection land on the same key. Frames the
// decoder rejects (ARP, runts, corrupted headers) fall back to a hash of the
// leading bytes and the length: deterministic per wire pattern, so repeated
// identical frames still pin to one VRI, but with no transport semantics.
//
// KeyOf never returns the zero key. The Table keeps a key's upper 48 bits
// only, so the hash must spread flows over those.
func KeyOf(f *packet.Frame) uint64 { return KeyOfMeta(packet.ParseMeta(f), f) }

// KeyOfMeta is KeyOf for a frame whose headers the caller has already parsed
// (m must be packet.ParseMeta(f)), so burst dispatch parses each frame once.
func KeyOfMeta(m packet.Meta, f *packet.Frame) uint64 {
	if m.IPv4 {
		if k := m.Hash(); k != 0 {
			return k
		}
		return 1
	}
	// Fallback: splitmix64 over the first up-to-14 bytes (the Ethernet
	// header when present) plus the buffer length.
	n := len(f.Buf)
	if n > packet.EthHeaderLen {
		n = packet.EthHeaderLen
	}
	var a, b uint64
	if n >= 8 {
		a = binary.BigEndian.Uint64(f.Buf[:8])
		for i := 8; i < n; i++ {
			b = b<<8 | uint64(f.Buf[i])
		}
	} else {
		for i := 0; i < n; i++ {
			a = a<<8 | uint64(f.Buf[i])
		}
	}
	x := a ^ (b << 1) ^ uint64(len(f.Buf))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}
