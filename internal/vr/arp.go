package vr

import (
	"sync"

	"lvrm/internal/packet"
)

// ARPTable is the VRI's address-resolution cache (Section 3.7): it learns
// sender bindings from every ARP message it sees and answers lookups for
// next-hop MAC rewriting. It is safe for concurrent use so the live
// runtime's VRIs can share one per VR if desired (by default each engine
// owns its own, like its route table).
type ARPTable struct {
	mu      sync.Mutex
	entries map[packet.IP]packet.MAC
}

// NewARPTable returns an empty cache.
func NewARPTable() *ARPTable {
	return &ARPTable{entries: make(map[packet.IP]packet.MAC)}
}

// Learn records (or refreshes) a binding.
func (t *ARPTable) Learn(ip packet.IP, mac packet.MAC) {
	t.mu.Lock()
	t.entries[ip] = mac
	t.mu.Unlock()
}

// Lookup resolves an IP to a MAC.
func (t *ARPTable) Lookup(ip packet.IP) (packet.MAC, bool) {
	t.mu.Lock()
	mac, ok := t.entries[ip]
	t.mu.Unlock()
	return mac, ok
}

// Len returns the number of cached bindings.
func (t *ARPTable) Len() int {
	t.mu.Lock()
	n := len(t.entries)
	t.mu.Unlock()
	return n
}

// Resolver returns a NextHopMAC function backed by the table, pluggable
// into BasicConfig.
func (t *ARPTable) Resolver() func(packet.IP) (packet.MAC, bool) {
	return t.Lookup
}

// ARPConfig enables ARP interpretation in the basic engine.
type ARPConfig struct {
	// Table caches bindings (required for ARP handling).
	Table *ARPTable
	// OwnIP and OwnMAC answer "who-has OwnIP" requests per interface.
	// The map is keyed by the interface the request arrived on.
	OwnIP  map[int]packet.IP
	OwnMAC map[int]packet.MAC
}

// HandleARP interprets an ARP frame for the VRI: it learns the sender's
// binding and, when the frame is a request for one of the VRI's own
// addresses, rewrites the frame in place into the reply (the standard
// in-situ ARP turnaround; the reply is written into the request's own
// buffer, so a pooled frame keeps it) and sets f.Out to the arrival interface. It
// reports whether the frame is now a reply to send. Non-ARP frames return
// ErrNotARP.
func HandleARP(cfg ARPConfig, f *packet.Frame) (bool, error) {
	m, err := packet.ParseARP(f)
	if err != nil {
		return false, err
	}
	if cfg.Table != nil && m.SenderIP != 0 {
		cfg.Table.Learn(m.SenderIP, m.SenderMAC)
	}
	if m.Op != packet.ARPRequest {
		f.Out = Drop
		return false, nil
	}
	ownIP, okIP := cfg.OwnIP[f.In]
	ownMAC, okMAC := cfg.OwnMAC[f.In]
	if !okIP || !okMAC || m.TargetIP != ownIP {
		f.Out = Drop
		return false, nil
	}
	f.Buf = f.Buf[:packet.ARPFrameLen]
	packet.BuildARPInto(packet.ARPMessage{
		Op:        packet.ARPReply,
		SenderMAC: ownMAC,
		SenderIP:  ownIP,
		TargetMAC: m.SenderMAC,
		TargetIP:  m.SenderIP,
	}, f.Buf)
	f.Out = f.In
	return true, nil
}
