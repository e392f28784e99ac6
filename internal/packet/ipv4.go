package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Errors returned by the parsers.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrNotIPv4     = errors.New("packet: not an IPv4 packet")
	ErrBadChecksum = errors.New("packet: bad IPv4 header checksum")
	ErrBadVersion  = errors.New("packet: bad IP version")
)

// IPv4Header is the parsed form of an option-less IPv4 header.
type IPv4Header struct {
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Proto    uint8
	Src, Dst IP
}

// Checksum computes the RFC 1071 internet checksum over b. It adds b as
// big-endian 64-bit words with end-around carry and folds the total to 16
// bits: a one's-complement sum of 16-bit words is the same sum taken 64 bits
// at a time, as 2^16 ≡ 1 modulo 2^16-1 and 2^16-1 divides 2^64-1.
func Checksum(b []byte) uint16 {
	var sum, c uint64
	for ; len(b) >= 32; b = b[32:] {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[0:8]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[8:16]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[16:24]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[24:32]), c)
	}
	for ; len(b) >= 8; b = b[8:] {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
	}
	// The tail, up to 7 bytes, as one word: each 16-bit piece keeps its
	// position in a 16-bit word, which is all the sum depends on.
	var tail uint64
	if len(b) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(b)) << 16
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8 << 16
	}
	sum, c = bits.Add64(sum, tail, c)
	sum, c = bits.Add64(sum, c, 0)
	sum += c
	// Fold 64 → 32 → 16 bits, each with end-around carry.
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// putIPv4Header serializes h into b (which must have room for 20 bytes) and
// writes a correct header checksum.
func putIPv4Header(b []byte, h IPv4Header) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0    // DSCP/ECN
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], 0x4000) // DF, no fragments
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0 // checksum placeholder
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(h.Dst))
	binary.BigEndian.PutUint16(b[10:12], Checksum(b[:IPv4HeaderLen]))
}

// ParseIPv4 parses and validates the IPv4 header at the start of b, returning
// the header and the payload slice.
func ParseIPv4(b []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if len(b) < IPv4HeaderLen {
		return h, nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return h, nil, ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return h, nil, ErrTruncated
	}
	if Checksum(b[:ihl]) != 0 {
		return h, nil, ErrBadChecksum
	}
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Proto = b[9]
	h.Src = IP(binary.BigEndian.Uint32(b[12:16]))
	h.Dst = IP(binary.BigEndian.Uint32(b[16:20]))
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(b) {
		return h, nil, ErrTruncated
	}
	return h, b[ihl:h.TotalLen], nil
}

// DecTTL decrements the TTL of the IPv4 packet at the start of b in place and
// incrementally updates the header checksum (RFC 1141). It reports whether
// the packet is still forwardable (TTL > 0 after the decrement).
func DecTTL(b []byte) (bool, error) {
	if len(b) < IPv4HeaderLen {
		return false, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return false, ErrBadVersion
	}
	if b[8] == 0 {
		return false, nil
	}
	b[8]--
	// Incremental checksum update: adding 0x0100 to the checksum
	// compensates for subtracting 1 from the TTL byte (high byte of the
	// TTL/protocol 16-bit word).
	sum := uint32(binary.BigEndian.Uint16(b[10:12])) + 0x0100
	sum = (sum & 0xffff) + (sum >> 16)
	binary.BigEndian.PutUint16(b[10:12], uint16(sum))
	return b[8] > 0, nil
}

// UDPBuildOpts describe a UDP-in-IPv4-in-Ethernet frame to build.
type UDPBuildOpts struct {
	SrcMAC, DstMAC   MAC
	Src, Dst         IP
	SrcPort, DstPort uint16
	TTL              uint8
	ID               uint16
	// WireSize is the desired total wire occupancy (84..1538). The payload
	// is padded with zeroes to reach it. If zero, PayloadLen is used.
	WireSize int
	// Payload is copied into the datagram; may be nil.
	Payload []byte
}

// UDPFrameLen returns the buffer length a frame built from o occupies, after
// validating the size constraints — the sizing half of BuildUDP, split out so
// pooled builders can acquire a right-sized buffer first.
func UDPFrameLen(o UDPBuildOpts) (int, error) {
	headers := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen
	payloadLen := len(o.Payload)
	if o.WireSize > 0 {
		if o.WireSize < MinWireSize || o.WireSize > MaxWireSize {
			return 0, fmt.Errorf("packet: wire size %d outside [%d,%d]", o.WireSize, MinWireSize, MaxWireSize)
		}
		avail := o.WireSize - EthPreambleLen - EthFCSLen - headers
		if avail < payloadLen {
			return 0, fmt.Errorf("packet: payload %dB does not fit wire size %d", payloadLen, o.WireSize)
		}
		payloadLen = avail
	}
	return headers + payloadLen, nil
}

// BuildUDPInto serializes the frame described by o into buf, whose length
// must be exactly UDPFrameLen(o). buf may be dirty (recycled from a pool):
// every byte is written, including explicit zeroing of the padding beyond the
// payload.
func BuildUDPInto(o UDPBuildOpts, buf []byte) error {
	want, err := UDPFrameLen(o)
	if err != nil {
		return err
	}
	if len(buf) != want {
		return fmt.Errorf("packet: BuildUDPInto buffer is %dB, frame needs %dB", len(buf), want)
	}
	if o.TTL == 0 {
		o.TTL = 64
	}
	payloadLen := want - EthHeaderLen - IPv4HeaderLen - UDPHeaderLen
	copy(buf[0:6], o.DstMAC[:])
	copy(buf[6:12], o.SrcMAC[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeIPv4)
	putIPv4Header(buf[EthHeaderLen:], IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + payloadLen),
		ID:       o.ID,
		TTL:      o.TTL,
		Proto:    ProtoUDP,
		Src:      o.Src,
		Dst:      o.Dst,
	})
	udp := buf[EthHeaderLen+IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], o.SrcPort)
	binary.BigEndian.PutUint16(udp[2:4], o.DstPort)
	binary.BigEndian.PutUint16(udp[4:6], uint16(UDPHeaderLen+payloadLen))
	binary.BigEndian.PutUint16(udp[6:8], 0) // checksum optional for IPv4
	n := copy(udp[UDPHeaderLen:], o.Payload)
	pad := udp[UDPHeaderLen+n:]
	for i := range pad {
		pad[i] = 0
	}
	return nil
}

// BuildUDP constructs a complete Ethernet+IPv4+UDP frame. When WireSize is
// set, the frame is padded so that WireLen() == WireSize.
func BuildUDP(o UDPBuildOpts) (*Frame, error) {
	n, err := UDPFrameLen(o)
	if err != nil {
		return nil, err
	}
	f := &Frame{Buf: make([]byte, n), Out: -1}
	if err := BuildUDPInto(o, f.Buf); err != nil {
		return nil, err
	}
	return f, nil
}

// Meta is what the monitor needs from a frame's headers, parsed once per
// frame by ParseMeta: classification reads Src, flow dispatch hashes the
// 5-tuple. It lives beside the frame in the monitor's burst scratch, never in
// Frame itself.
type Meta struct {
	FiveTuple
	// IPv4 reports whether the frame carries a valid IPv4 header; when
	// false the tuple is zero.
	IPv4 bool
}

// ParseMeta parses the frame's Ethernet and IPv4 headers in one pass,
// applying every check ParseIPv4 does (length, version, IHL, header checksum,
// TotalLen) on top of the EtherType test. TCP and UDP frames also yield their
// ports; ICMP and other protocols yield a port-less tuple so that
// flow-based balancing can still pin them consistently.
func ParseMeta(f *Frame) Meta {
	var m Meta
	b := f.Buf
	if len(b) < EthHeaderLen+IPv4HeaderLen || binary.BigEndian.Uint16(b[12:14]) != EtherTypeIPv4 {
		return m
	}
	b = b[EthHeaderLen:]
	ihl := int(b[0]&0x0f) * 4
	if b[0]>>4 != 4 || ihl < IPv4HeaderLen || len(b) < ihl || Checksum(b[:ihl]) != 0 {
		return m
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < ihl || total > len(b) {
		return m
	}
	m.IPv4 = true
	m.Proto = b[9]
	m.Src = IP(binary.BigEndian.Uint32(b[12:16]))
	m.Dst = IP(binary.BigEndian.Uint32(b[16:20]))
	if (m.Proto == ProtoTCP || m.Proto == ProtoUDP) && total-ihl >= 4 {
		m.SrcPort = binary.BigEndian.Uint16(b[ihl : ihl+2])
		m.DstPort = binary.BigEndian.Uint16(b[ihl+2 : ihl+4])
	}
	return m
}

// FlowOf extracts the transport 5-tuple of the frame, if it carries valid
// IPv4 (see ParseMeta).
func FlowOf(f *Frame) (FiveTuple, bool) {
	m := ParseMeta(f)
	return m.FiveTuple, m.IPv4
}
