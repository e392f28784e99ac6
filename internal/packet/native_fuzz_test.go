package packet

import (
	"bytes"
	"testing"
)

// Native fuzz targets (go test -fuzz): seeded with valid frames so the
// mutator starts from interesting inputs. They double as regression tests
// for the seed corpus when run without -fuzz.

func FuzzParseIPv4(f *testing.F) {
	valid, _ := BuildUDP(UDPBuildOpts{
		Src: IPv4(10, 1, 0, 1), Dst: IPv4(10, 2, 0, 1), WireSize: MinWireSize,
	})
	f.Add(valid.Buf[EthHeaderLen:])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x45}, 20))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := ParseIPv4(b)
		if err != nil {
			return
		}
		// On success the invariants must hold.
		if int(h.TotalLen) > len(b) {
			t.Fatalf("TotalLen %d exceeds buffer %d", h.TotalLen, len(b))
		}
		if len(payload) > len(b) {
			t.Fatalf("payload longer than input")
		}
	})
}

func FuzzParseARP(f *testing.F) {
	req := BuildARP(ARPMessage{Op: ARPRequest, SenderIP: IPv4(10, 0, 0, 1), TargetIP: IPv4(10, 0, 0, 2)})
	f.Add(req.Buf)
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = ParseARP(&Frame{Buf: b})
	})
}

// frameDecodeCorpus is FuzzFrameDecode's seed corpus, shared with the
// ParseMeta table test.
func frameDecodeCorpus() [][]byte {
	// Golden frames: every codec the package ships.
	udp, _ := BuildUDP(UDPBuildOpts{
		Src: IPv4(10, 1, 0, 1), Dst: IPv4(10, 2, 0, 1),
		SrcPort: 5000, DstPort: 9, WireSize: MinWireSize,
	})
	tcp, _ := BuildTCP(TCPBuildOpts{Hdr: TCPHeader{SrcPort: 80, DstPort: 1234}})
	icmp, _ := BuildICMPEcho(ICMPBuildOpts{Src: IPv4(10, 1, 0, 1), Dst: IPv4(10, 2, 0, 1)})
	arp := BuildARP(ARPMessage{Op: ARPRequest, SenderIP: IPv4(10, 0, 0, 1), TargetIP: IPv4(10, 0, 0, 2)})
	long := append([]byte(nil), udp.Buf...)
	long[EthHeaderLen+2], long[EthHeaderLen+3] = 0xff, 0xff // TotalLen 65535
	return [][]byte{
		udp.Buf, tcp.Buf, icmp.Buf, arp.Buf,
		// Adversarial shapes: empty, runts below every header boundary, a
		// truncated IPv4 header, an IPv4 header promising more payload than
		// the buffer holds, and an oversize all-ones buffer.
		{},
		{0xde},
		udp.Buf[:6],                            // half a MAC pair
		udp.Buf[:EthHeaderLen-1],               // one byte short of an EtherType
		udp.Buf[:EthHeaderLen+IPv4HeaderLen-1], // truncated IPv4 header
		long,
		bytes.Repeat([]byte{0xff}, EthMaxFrame+64),
	}
}

// FuzzFrameDecode drives the whole frame-decoder surface — Ethernet
// accessors, IPv4 parse, transport parses, TTL decrement, and the flow
// classifier — over one mutated buffer. The seed corpus covers each golden
// frame type plus hand-built runt, oversize, and truncated-header shapes, so
// the mutator starts at every decoder branch. The single property is that no
// input, however mangled, panics a decoder; successful parses must also keep
// their length invariants.
func FuzzFrameDecode(f *testing.F) {
	for _, b := range frameDecodeCorpus() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr := &Frame{Buf: b, Out: -1}
		// Ethernet accessors must tolerate any length.
		_ = fr.EtherType()
		_ = fr.DstMAC()
		_ = fr.SrcMAC()
		_ = fr.WireLen()
		// The flow classifier must always deliver a verdict, and the same
		// one as the parsers it stands for.
		if got, want := ParseMeta(fr), refMeta(b); got != want {
			t.Fatalf("ParseMeta = %+v, ParseIPv4 says %+v", got, want)
		}
		if len(b) < EthHeaderLen {
			return
		}
		payload := b[EthHeaderLen:]
		h, ipPayload, err := ParseIPv4(payload)
		if err == nil {
			if int(h.TotalLen) > len(payload) {
				t.Fatalf("TotalLen %d exceeds payload %d", h.TotalLen, len(payload))
			}
			if len(ipPayload) > len(payload) {
				t.Fatal("IPv4 payload longer than input")
			}
			switch h.Proto {
			case ProtoTCP:
				if _, tcpPayload, err := ParseTCP(ipPayload); err == nil && len(tcpPayload) > len(ipPayload) {
					t.Fatal("TCP payload longer than segment")
				}
			case ProtoICMP:
				_, _ = ParseICMPEcho(ipPayload)
			}
			// DecTTL mutates a copy; it must never write out of bounds.
			cp := append([]byte(nil), payload...)
			_, _ = DecTTL(cp)
		}
		_, _ = ParseARP(fr)
	})
}

func FuzzFlowOf(f *testing.F) {
	udp, _ := BuildUDP(UDPBuildOpts{WireSize: MinWireSize})
	tcp, _ := BuildTCP(TCPBuildOpts{Hdr: TCPHeader{SrcPort: 1, DstPort: 2}})
	f.Add(udp.Buf)
	f.Add(tcp.Buf)
	f.Fuzz(func(t *testing.T, b []byte) {
		ft, ok := FlowOf(&Frame{Buf: b})
		if ok && ft.Proto == 0 && ft.Src == 0 && ft.Dst == 0 {
			// A successful parse of a zeroed tuple is possible (all-zero
			// addresses) — just exercise Hash for determinism.
			if ft.Hash() != ft.Hash() {
				t.Fatal("hash not deterministic")
			}
		}
	})
}
