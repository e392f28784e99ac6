package packet

import (
	"encoding/binary"
	"errors"
)

// ARP support: Section 3.7 makes each VRI "responsible for interpreting the
// address resolution and routing information", so the codecs cover ARP
// requests and replies for IPv4-over-Ethernet (the only binding the testbed
// uses).

// ARP opcodes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPMessage is a parsed Ethernet/IPv4 ARP body.
type ARPMessage struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  IP
	TargetMAC MAC
	TargetIP  IP
}

// ErrNotARP is returned when a frame does not carry Ethernet/IPv4 ARP.
var ErrNotARP = errors.New("packet: not an Ethernet/IPv4 ARP message")

// ARPFrameLen is the length of an Ethernet frame carrying an ARP message:
// the Ethernet header and the 28-byte Ethernet/IPv4 ARP body.
const ARPFrameLen = EthHeaderLen + 28

// BuildARP constructs an Ethernet frame carrying the ARP message. Requests
// are broadcast; replies are unicast to the target's MAC.
func BuildARP(m ARPMessage) *Frame {
	buf := make([]byte, ARPFrameLen)
	BuildARPInto(m, buf)
	return &Frame{Buf: buf, Out: -1}
}

// BuildARPInto writes the frame BuildARP builds into buf[:ARPFrameLen]. It
// writes every one of those bytes, so buf may be dirty: recycled from a pool,
// or the request being answered in place. buf must be at least ARPFrameLen
// long.
func BuildARPInto(m ARPMessage, buf []byte) {
	buf = buf[:ARPFrameLen]
	dst := m.TargetMAC
	if m.Op == ARPRequest {
		dst = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	}
	copy(buf[0:6], dst[:])
	copy(buf[6:12], m.SenderMAC[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeARP)
	p := buf[EthHeaderLen:]
	binary.BigEndian.PutUint16(p[0:2], 1)      // hardware type: Ethernet
	binary.BigEndian.PutUint16(p[2:4], 0x0800) // protocol type: IPv4
	p[4], p[5] = 6, 4                          // address lengths
	binary.BigEndian.PutUint16(p[6:8], m.Op)
	copy(p[8:14], m.SenderMAC[:])
	binary.BigEndian.PutUint32(p[14:18], uint32(m.SenderIP))
	copy(p[18:24], m.TargetMAC[:])
	binary.BigEndian.PutUint32(p[24:28], uint32(m.TargetIP))
}

// ParseARP decodes an ARP frame.
func ParseARP(f *Frame) (ARPMessage, error) {
	var m ARPMessage
	if f.EtherType() != EtherTypeARP || len(f.Buf) < ARPFrameLen {
		return m, ErrNotARP
	}
	p := f.Buf[EthHeaderLen:]
	if binary.BigEndian.Uint16(p[0:2]) != 1 ||
		binary.BigEndian.Uint16(p[2:4]) != 0x0800 ||
		p[4] != 6 || p[5] != 4 {
		return m, ErrNotARP
	}
	m.Op = binary.BigEndian.Uint16(p[6:8])
	copy(m.SenderMAC[:], p[8:14])
	m.SenderIP = IP(binary.BigEndian.Uint32(p[14:18]))
	copy(m.TargetMAC[:], p[18:24])
	m.TargetIP = IP(binary.BigEndian.Uint32(p[24:28]))
	return m, nil
}
