// Package packet implements the wire formats that traverse LVRM: Ethernet II
// frames carrying IPv4, UDP, TCP and ICMP, built and parsed byte-for-byte.
// The package also defines the Frame type that flows through the IPC queues
// and the 5-tuple flow key used by flow-based load balancing (Section 3.3).
//
// Sizes follow the paper's convention: the "frame size" of a minimum-sized
// Ethernet frame is 84 bytes *on the wire*, i.e. the 64-byte frame (including
// the 4-byte FCS) plus the 8-byte preamble and the 12-byte inter-frame gap.
package packet

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Wire-format constants.
const (
	// EthHeaderLen is destination MAC + source MAC + EtherType.
	EthHeaderLen = 14
	// EthFCSLen is the frame check sequence appended to every frame.
	EthFCSLen = 4
	// EthPreambleLen counts the preamble+SFD (8) and inter-frame gap (12)
	// that occupy the wire but are not part of the frame buffer.
	EthPreambleLen = 20
	// EthMinFrame is the minimum frame length including FCS.
	EthMinFrame = 64
	// EthMaxFrame is the maximum standard frame length including FCS.
	EthMaxFrame = 1518

	// MinWireSize (84) and MaxWireSize (1538) are the paper's frame-size
	// axis endpoints: frame plus preamble and inter-frame gap.
	MinWireSize = EthMinFrame + EthPreambleLen
	MaxWireSize = EthMaxFrame + EthPreambleLen

	// IPv4HeaderLen is the length of an option-less IPv4 header.
	IPv4HeaderLen = 20
	// UDPHeaderLen is the length of a UDP header.
	UDPHeaderLen = 8
	// TCPHeaderLen is the length of an option-less TCP header.
	TCPHeaderLen = 20
	// ICMPEchoHeaderLen is the length of an ICMP echo header.
	ICMPEchoHeaderLen = 8
)

// EtherType values used by the codecs.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// IPv4 protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IP is an IPv4 address in host-independent big-endian form.
type IP uint32

// IPv4 assembles an IP from its dotted-quad components.
func IPv4(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) {
	var parts [4]int
	n := 0
	cur := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if cur < 0 || cur > 255 || n >= 4 {
				return 0, fmt.Errorf("packet: invalid IPv4 address %q", s)
			}
			parts[n] = cur
			n++
			cur = -1
			continue
		}
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("packet: invalid IPv4 address %q", s)
		}
		if cur < 0 {
			cur = 0
		}
		cur = cur*10 + int(s[i]-'0')
		if cur > 255 {
			return 0, fmt.Errorf("packet: invalid IPv4 address %q", s)
		}
	}
	if n != 4 {
		return 0, fmt.Errorf("packet: invalid IPv4 address %q", s)
	}
	return IPv4(byte(parts[0]), byte(parts[1]), byte(parts[2]), byte(parts[3])), nil
}

// MustParseIP is ParseIP that panics on error, for literals in tests and
// examples.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// FiveTuple identifies a transport flow for flow-based load balancing.
type FiveTuple struct {
	Src, Dst         IP
	SrcPort, DstPort uint16
	Proto            uint8
}

// String renders the tuple in "proto src:sport->dst:dport" form.
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%d %s:%d->%s:%d", ft.Proto, ft.Src, ft.SrcPort, ft.Dst, ft.DstPort)
}

// Hash mixes the tuple into a 64-bit key (splitmix64 finalizer): the flow
// key of the flow-affinity table (flow.KeyOf).
func (ft FiveTuple) Hash() uint64 {
	x := uint64(ft.Src)<<32 | uint64(ft.Dst)
	x ^= uint64(ft.SrcPort)<<48 | uint64(ft.DstPort)<<32 | uint64(ft.Proto)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Frame is a raw data frame as relayed by LVRM: the frame bytes from the
// destination MAC through the payload (the FCS is accounted for in WireLen
// but not materialized). In and Out name the network interfaces; Out is
// filled in by the VRI when it decides where the frame goes (step 3 of the
// workflow in Chapter 2).
type Frame struct {
	// Buf holds the frame bytes starting at the Ethernet header.
	Buf []byte
	// In is the input interface index the frame was captured on.
	In int
	// Out is the output interface index chosen by the VRI; -1 means drop.
	Out int
	// Timestamp is the capture time in simulation or wall-clock
	// nanoseconds, used for latency accounting.
	Timestamp int64

	// refs is the reference count while the frame is pool-owned: Retain
	// increments it, Release decrements it, and the count reaching zero
	// returns the frame to origin. A plain int32 driven through sync/atomic
	// (rather than atomic.Int32) keeps Frame copyable by value, which the
	// testbed and several tests rely on. Zero on unpooled frames.
	refs int32
	// origin is the pool that owns the frame's buffer, nil for frames
	// allocated straight from the heap. Release on a nil-origin frame is a
	// no-op, so code threaded through the pooled lifecycle behaves
	// identically when pooling is disabled.
	origin Recycler
}

// Recycler takes back a frame whose reference count dropped to zero.
// internal/packet/pool implements it; the indirection exists so Frame can
// return itself to its pool without this package importing the pool.
type Recycler interface {
	RecycleFrame(*Frame)
}

// AttachPool binds the frame to a recycler and resets its reference count to
// one. Only frame pools call this, on the Get path; user code acquires frames
// from a pool and never attaches them itself.
func (f *Frame) AttachPool(r Recycler) {
	f.origin = r
	atomic.StoreInt32(&f.refs, 1)
}

// Pooled reports whether the frame's buffer is owned by a pool, i.e. whether
// Release actually recycles it.
func (f *Frame) Pooled() bool { return f.origin != nil }

// Refs returns the current reference count (0 for unpooled frames). It is a
// racy snapshot, meant for tests and diagnostics.
func (f *Frame) Refs() int32 { return atomic.LoadInt32(&f.refs) }

// Shared reports whether more than one holder currently references the frame.
// The copy-on-write rule for pooled frames: a holder may mutate Buf in place
// (MAC rewrite, TTL decrement) only while it holds the sole reference; a
// fan-out path that Retained the frame must treat the buffer read-only or
// take its own pooled copy first.
func (f *Frame) Shared() bool {
	return f.origin != nil && atomic.LoadInt32(&f.refs) > 1
}

// Retain adds a reference for a fan-out path that hands the same frame to
// more than one consumer; each consumer then calls Release independently. It
// returns the frame for call chaining. On unpooled frames it is a no-op — the
// GC owns the buffer.
func (f *Frame) Retain() *Frame {
	if f.origin != nil {
		atomic.AddInt32(&f.refs, 1)
	}
	return f
}

// Release drops one reference; the count reaching zero returns the frame to
// its pool. On unpooled frames it is a no-op, which is what makes the pooled
// ownership discipline safe to thread through paths that also carry
// heap-allocated frames. Releasing more times than the frame was acquired or
// Retained panics — a silent extra release would recycle a buffer someone
// still reads.
func (f *Frame) Release() {
	if f.origin == nil {
		return
	}
	switch n := atomic.AddInt32(&f.refs, -1); {
	case n == 0:
		f.origin.RecycleFrame(f)
	case n < 0:
		panic(fmt.Sprintf(
			"packet: Frame.Release without matching acquire (refs=%d, len=%d): double release, or release of a frame already recycled",
			n, len(f.Buf)))
	}
}

// WireLen returns the frame's wire occupancy in bytes: buffer + FCS +
// preamble + inter-frame gap, matching the paper's frame-size axis.
func (f *Frame) WireLen() int { return len(f.Buf) + EthFCSLen + EthPreambleLen }

// EtherType returns the frame's EtherType field, or 0 for runt buffers.
func (f *Frame) EtherType() uint16 {
	if len(f.Buf) < EthHeaderLen {
		return 0
	}
	return binary.BigEndian.Uint16(f.Buf[12:14])
}

// DstMAC returns the destination MAC address.
func (f *Frame) DstMAC() MAC {
	var m MAC
	if len(f.Buf) >= 6 {
		copy(m[:], f.Buf[0:6])
	}
	return m
}

// SrcMAC returns the source MAC address.
func (f *Frame) SrcMAC() MAC {
	var m MAC
	if len(f.Buf) >= 12 {
		copy(m[:], f.Buf[6:12])
	}
	return m
}

// SetDstMAC overwrites the destination MAC in place.
func (f *Frame) SetDstMAC(m MAC) {
	if len(f.Buf) >= 6 {
		copy(f.Buf[0:6], m[:])
	}
}

// SetSrcMAC overwrites the source MAC in place.
func (f *Frame) SetSrcMAC(m MAC) {
	if len(f.Buf) >= 12 {
		copy(f.Buf[6:12], m[:])
	}
}

// Clone returns a deep copy of the frame, for fan-out paths that must not
// share buffers. The copy is always heap-allocated and unpooled regardless of
// the receiver's origin; pool.Copy is the allocation-free equivalent.
func (f *Frame) Clone() *Frame {
	buf := make([]byte, len(f.Buf))
	copy(buf, f.Buf)
	return &Frame{Buf: buf, In: f.In, Out: f.Out, Timestamp: f.Timestamp}
}
