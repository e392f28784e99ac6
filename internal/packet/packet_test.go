package packet

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x00, 0x1b, 0x21, 0x01, 0x02, 0x03}
	macB = MAC{0x00, 0x1b, 0x21, 0x0a, 0x0b, 0x0c}
)

func TestMACString(t *testing.T) {
	if got := macA.String(); got != "00:1b:21:01:02:03" {
		t.Errorf("MAC.String() = %q", got)
	}
}

func TestIPStringRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "10.1.2.3", "192.168.255.1", "255.255.255.255"} {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if ip.String() != s {
			t.Errorf("round trip %q -> %q", s, ip.String())
		}
	}
}

func TestParseIPErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "1.2.3.4x"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", s)
		}
	}
}

func TestIPv4PropertyRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		ip := IPv4(a, b, c, d)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildParseUDP(t *testing.T) {
	f, err := BuildUDP(UDPBuildOpts{
		SrcMAC: macA, DstMAC: macB,
		Src: MustParseIP("10.1.0.5"), Dst: MustParseIP("10.2.0.9"),
		SrcPort: 4000, DstPort: 5001,
		WireSize: MinWireSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.WireLen() != MinWireSize {
		t.Errorf("WireLen() = %d, want %d", f.WireLen(), MinWireSize)
	}
	if f.EtherType() != EtherTypeIPv4 {
		t.Errorf("EtherType = %#x", f.EtherType())
	}
	if f.DstMAC() != macB || f.SrcMAC() != macA {
		t.Errorf("MACs = %v -> %v", f.SrcMAC(), f.DstMAC())
	}
	h, payload, err := ParseIPv4(f.Buf[EthHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if h.Proto != ProtoUDP || h.Src != MustParseIP("10.1.0.5") || h.Dst != MustParseIP("10.2.0.9") {
		t.Errorf("IPv4 header = %+v", h)
	}
	if len(payload) != int(h.TotalLen)-IPv4HeaderLen {
		t.Errorf("payload length %d inconsistent with TotalLen %d", len(payload), h.TotalLen)
	}
	ft, ok := FlowOf(f)
	if !ok || ft.SrcPort != 4000 || ft.DstPort != 5001 || ft.Proto != ProtoUDP {
		t.Errorf("FlowOf = %+v, %v", ft, ok)
	}
}

func TestBuildUDPAllWireSizes(t *testing.T) {
	for size := MinWireSize; size <= MaxWireSize; size += 113 {
		f, err := BuildUDP(UDPBuildOpts{WireSize: size})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if f.WireLen() != size {
			t.Errorf("size %d: WireLen() = %d", size, f.WireLen())
		}
		if _, _, err := ParseIPv4(f.Buf[EthHeaderLen:]); err != nil {
			t.Errorf("size %d: reparse: %v", size, err)
		}
	}
}

func TestBuildUDPBadSizes(t *testing.T) {
	for _, size := range []int{1, MinWireSize - 1, MaxWireSize + 1} {
		if _, err := BuildUDP(UDPBuildOpts{WireSize: size}); err == nil {
			t.Errorf("WireSize %d accepted", size)
		}
	}
	if _, err := BuildUDP(UDPBuildOpts{WireSize: MinWireSize, Payload: make([]byte, 100)}); err == nil {
		t.Error("oversized payload accepted for minimum frame")
	}
}

func TestChecksumProperties(t *testing.T) {
	// A buffer with its checksum stored verifies to zero.
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		b := make([]byte, len(data))
		copy(b, data)
		b[0], b[1] = 0, 0
		c := Checksum(b)
		b[0], b[1] = byte(c>>8), byte(c)
		// Only even-length buffers verify exactly (odd tail is padded
		// differently on store vs verify in real stacks too).
		if len(b)%2 == 0 {
			return Checksum(b) == 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseIPv4Errors(t *testing.T) {
	if _, _, err := ParseIPv4(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short buffer: %v", err)
	}
	b := make([]byte, IPv4HeaderLen)
	b[0] = 0x65 // version 6
	if _, _, err := ParseIPv4(b); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
	f, _ := BuildUDP(UDPBuildOpts{WireSize: MinWireSize})
	f.Buf[EthHeaderLen+8] ^= 0xff // corrupt TTL without fixing checksum
	if _, _, err := ParseIPv4(f.Buf[EthHeaderLen:]); err != ErrBadChecksum {
		t.Errorf("corrupted header: %v", err)
	}
}

func TestDecTTL(t *testing.T) {
	f, _ := BuildUDP(UDPBuildOpts{WireSize: MinWireSize, TTL: 2})
	ip := f.Buf[EthHeaderLen:]
	alive, err := DecTTL(ip)
	if err != nil || !alive {
		t.Fatalf("first DecTTL = (%v,%v)", alive, err)
	}
	// The incrementally updated checksum must still verify.
	if _, _, err := ParseIPv4(ip); err != nil {
		t.Fatalf("checksum broken after DecTTL: %v", err)
	}
	alive, err = DecTTL(ip)
	if err != nil || alive {
		t.Fatalf("second DecTTL = (%v,%v), want TTL expiry", alive, err)
	}
	if _, _, err := ParseIPv4(ip); err != nil {
		t.Fatalf("checksum broken after expiry decrement: %v", err)
	}
	// TTL 0: not forwardable, no decrement.
	alive, err = DecTTL(ip)
	if err != nil || alive {
		t.Fatalf("TTL 0 DecTTL = (%v,%v)", alive, err)
	}
}

func TestDecTTLPropertyChecksum(t *testing.T) {
	f := func(ttl uint8, a, b byte) bool {
		if ttl == 0 {
			ttl = 1
		}
		fr, err := BuildUDP(UDPBuildOpts{
			WireSize: MinWireSize, TTL: ttl,
			Src: IPv4(10, a, b, 1), Dst: IPv4(10, b, a, 2),
		})
		if err != nil {
			return false
		}
		ip := fr.Buf[EthHeaderLen:]
		if _, err := DecTTL(ip); err != nil {
			return false
		}
		_, _, err = ParseIPv4(ip)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBuildParseTCP(t *testing.T) {
	f, err := BuildTCP(TCPBuildOpts{
		SrcMAC: macA, DstMAC: macB,
		Src: MustParseIP("10.1.0.5"), Dst: MustParseIP("10.2.0.9"),
		Hdr:        TCPHeader{SrcPort: 21, DstPort: 50000, Seq: 1234, Ack: 5678, Flags: TCPAck | TCPPsh, Window: 65535},
		PayloadLen: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, payload, err := ParseIPv4(f.Buf[EthHeaderLen:])
	if err != nil || h.Proto != ProtoTCP {
		t.Fatalf("ParseIPv4 = %+v, %v", h, err)
	}
	th, seg, err := ParseTCP(payload)
	if err != nil {
		t.Fatal(err)
	}
	if th.SrcPort != 21 || th.DstPort != 50000 || th.Seq != 1234 || th.Ack != 5678 {
		t.Errorf("TCP header = %+v", th)
	}
	if th.Flags != TCPAck|TCPPsh || th.Window != 65535 {
		t.Errorf("TCP flags/window = %v/%v", th.Flags, th.Window)
	}
	if len(seg) != 1000 {
		t.Errorf("segment length = %d", len(seg))
	}
	ft, ok := FlowOf(f)
	if !ok || ft.Proto != ProtoTCP || ft.SrcPort != 21 {
		t.Errorf("FlowOf = %+v, %v", ft, ok)
	}
}

func TestParseTCPErrors(t *testing.T) {
	if _, _, err := ParseTCP(make([]byte, 4)); err != ErrTruncated {
		t.Errorf("short TCP: %v", err)
	}
	b := make([]byte, TCPHeaderLen)
	b[12] = 15 << 4 // data offset beyond buffer
	if _, _, err := ParseTCP(b); err != ErrTruncated {
		t.Errorf("bad offset: %v", err)
	}
}

func TestBuildParseICMP(t *testing.T) {
	f, err := BuildICMPEcho(ICMPBuildOpts{
		SrcMAC: macA, DstMAC: macB,
		Src: MustParseIP("10.1.0.5"), Dst: MustParseIP("10.2.0.9"),
		Echo:       ICMPEcho{Type: ICMPEchoRequest, ID: 77, Seq: 3},
		PayloadLen: 56,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, payload, err := ParseIPv4(f.Buf[EthHeaderLen:])
	if err != nil || h.Proto != ProtoICMP {
		t.Fatalf("ParseIPv4 = %+v, %v", h, err)
	}
	e, err := ParseICMPEcho(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != ICMPEchoRequest || e.ID != 77 || e.Seq != 3 {
		t.Errorf("echo = %+v", e)
	}
	// Corrupt the ICMP body: checksum must fail.
	payload[ICMPEchoHeaderLen] ^= 0xff
	if _, err := ParseICMPEcho(payload); err != ErrBadChecksum {
		t.Errorf("corrupted ICMP: %v", err)
	}
}

func TestFiveTupleHashDistinct(t *testing.T) {
	a := FiveTuple{Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	b := a
	b.SrcPort = 3
	if a.Hash() == b.Hash() {
		t.Error("distinct tuples share a hash (possible but vanishingly unlikely)")
	}
	if a.Hash() != a.Hash() {
		t.Error("hash not deterministic")
	}
}

func TestFrameClone(t *testing.T) {
	f, _ := BuildUDP(UDPBuildOpts{WireSize: MinWireSize})
	f.In, f.Out, f.Timestamp = 1, 2, 99
	c := f.Clone()
	c.Buf[0] ^= 0xff
	if f.Buf[0] == c.Buf[0] {
		t.Error("Clone shares the buffer")
	}
	if c.In != 1 || c.Out != 2 || c.Timestamp != 99 {
		t.Errorf("Clone metadata = %+v", c)
	}
}

func TestFlowOfNonIP(t *testing.T) {
	f := &Frame{Buf: make([]byte, EthHeaderLen)}
	f.Buf[12], f.Buf[13] = 0x08, 0x06 // ARP
	if _, ok := FlowOf(f); ok {
		t.Error("FlowOf accepted a non-IPv4 frame")
	}
	if _, ok := FlowOf(&Frame{Buf: nil}); ok {
		t.Error("FlowOf accepted an empty frame")
	}
}

// checksumRef is RFC 1071 one 16-bit word at a time: the loop Checksum
// replaced, kept as its oracle.
func checksumRef(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// TestChecksumMatchesWordLoop checks the word-at-a-time Checksum against the
// 16-bit loop on random buffers of every length from 0 to 80, and on the
// all-zero and all-ones buffers where end-around carry decides the result.
func TestChecksumMatchesWordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 80)
	for n := 0; n <= len(buf); n++ {
		for _, fill := range []int{-1, 0x00, 0xff} {
			for trial := 0; trial < 50; trial++ {
				for i := range buf[:n] {
					if fill < 0 {
						buf[i] = byte(rng.Intn(256))
					} else {
						buf[i] = byte(fill)
					}
				}
				// Unaligned starts too: headers sit 14 bytes into a frame.
				off := rng.Intn(8)
				b := append(make([]byte, off), buf[:n]...)[off:]
				if got, want := Checksum(b), checksumRef(b); got != want {
					t.Fatalf("len %d fill %d: Checksum %#04x, word loop %#04x (% x)", n, fill, got, want, b)
				}
				if fill >= 0 {
					break
				}
			}
		}
	}
	if err := quick.Check(func(b []byte) bool { return Checksum(b) == checksumRef(b) }, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkChecksum checksums one option-less IPv4 header, the size the
// monitor's parsers verify per frame.
func BenchmarkChecksum(b *testing.B) {
	f, _ := BuildUDP(UDPBuildOpts{WireSize: MinWireSize})
	hdr := f.Buf[EthHeaderLen : EthHeaderLen+IPv4HeaderLen]
	for i := 0; i < b.N; i++ {
		checksumSink += Checksum(hdr)
	}
}

var checksumSink uint16

func BenchmarkBuildUDP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = BuildUDP(UDPBuildOpts{WireSize: MinWireSize})
	}
}

func BenchmarkParseIPv4(b *testing.B) {
	f, _ := BuildUDP(UDPBuildOpts{WireSize: MinWireSize})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = ParseIPv4(f.Buf[EthHeaderLen:])
	}
}

func BenchmarkDecTTL(b *testing.B) {
	f, _ := BuildUDP(UDPBuildOpts{WireSize: MinWireSize, TTL: 255})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.Buf[EthHeaderLen+8] < 2 {
			f.Buf[EthHeaderLen+8] = 255
		}
		_, _ = DecTTL(f.Buf[EthHeaderLen:])
	}
}

func BenchmarkFiveTupleHash(b *testing.B) {
	ft := FiveTuple{Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	for i := 0; i < b.N; i++ {
		_ = ft.Hash()
	}
}

// refMeta derives what ParseMeta must return from the parsers it replaces on
// the monitor's path: the EtherType test of VR classification, ParseIPv4's
// verdict, and the port read of the flow key.
func refMeta(b []byte) Meta {
	var m Meta
	if len(b) < EthHeaderLen || binary.BigEndian.Uint16(b[12:14]) != EtherTypeIPv4 {
		return m
	}
	h, payload, err := ParseIPv4(b[EthHeaderLen:])
	if err != nil {
		return m
	}
	m.IPv4, m.Src, m.Dst, m.Proto = true, h.Src, h.Dst, h.Proto
	if (h.Proto == ProtoTCP || h.Proto == ProtoUDP) && len(payload) >= 4 {
		m.SrcPort = binary.BigEndian.Uint16(payload[0:2])
		m.DstPort = binary.BigEndian.Uint16(payload[2:4])
	}
	return m
}

// TestParseMetaMatchesParsers: over the FuzzFrameDecode corpus and every
// single-bit corruption of a valid frame's Ethernet and IPv4 headers,
// ParseMeta accepts exactly the frames EtherType + ParseIPv4 accept, with the
// same addresses, protocol and ports, and FlowOf is its projection.
func TestParseMetaMatchesParsers(t *testing.T) {
	inputs := frameDecodeCorpus()
	valid := inputs[0]
	for i := 0; i < EthHeaderLen+IPv4HeaderLen+4; i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 1 << bit
			inputs = append(inputs, mut)
		}
	}
	accepted := 0
	for i, b := range inputs {
		f := &Frame{Buf: b}
		got, want := ParseMeta(f), refMeta(b)
		if got != want {
			t.Errorf("input %d (%d bytes): ParseMeta = %+v, want %+v", i, len(b), got, want)
		}
		if ft, ok := FlowOf(f); ft != got.FiveTuple || ok != got.IPv4 {
			t.Errorf("input %d: FlowOf = %v, %v; ParseMeta says %+v", i, ft, ok, got)
		}
		if !got.IPv4 && got != (Meta{}) {
			t.Errorf("input %d: rejected frame left a non-zero tuple %+v", i, got)
		}
		if got.IPv4 {
			accepted++
		}
	}
	// udp, tcp, icmp, plus the MAC and port flips; every IPv4 header flip
	// must be rejected by the checksum.
	if want := 3 + (12+4)*8; accepted != want {
		t.Errorf("accepted %d inputs, want %d", accepted, want)
	}
}
