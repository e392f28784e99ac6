// Package netio defines the socket adapter of Section 3.1: the software
// interface through which LVRM captures raw frames from, and forwards raw
// frames to, a lower level. Three mechanisms mirror the paper's variants —
// raw BSD sockets, PF_RING zero-copy capture, and main memory — plus a live
// in-process backend for the goroutine runtime.
//
// The physical NIC and kernel are simulated, so a mechanism here is (a) a
// transport (where frames physically come from: a preloaded trace, a ring
// shared with the discrete-event testbed, or Go channels) and (b) a cost
// model charging the per-frame CPU time that the mechanism would cost on
// real hardware (raw-socket syscalls and kernel buffer copies vs. PF_RING's
// polled zero-copy path). The testbed charges these costs to the gateway's
// cores; the live runtime simply moves frames.
package netio

import (
	"errors"
	"sync/atomic"
	"time"

	"lvrm/internal/ipc"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
)

// Adapter is the socket adapter contract. Recv polls for one available
// frame without blocking, mirroring the paper's non-blocking recvfrom()
// loop; Send forwards one frame to the lower level.
type Adapter interface {
	// Recv returns the next available frame, if any.
	Recv() (*packet.Frame, bool)
	// Send forwards a frame to the lower level.
	Send(f *packet.Frame) error
	// Name identifies the adapter variant.
	Name() string
	// Close releases the adapter's resources.
	Close() error
}

// Mechanism identifies the I/O mechanism being modeled, which selects the
// per-frame cost model.
type Mechanism int

const (
	// RawSocket models non-blocking BSD raw sockets: one syscall per frame
	// in each direction plus a kernel<->user buffer copy.
	RawSocket Mechanism = iota
	// PFRing models PF_RING >= 3.7.5 with zero-copy receive and
	// pfring_send-based transmit.
	PFRing
	// PFRingV1 models LVRM 1.0's hybrid: PF_RING receive but raw-socket
	// send (PF_RING before 3.7.5 had no transmit path).
	PFRingV1
	// Memory models the main-memory backend: frames are read from RAM.
	Memory
)

// String returns the mechanism label used in the experiments.
func (m Mechanism) String() string {
	switch m {
	case RawSocket:
		return "rawsocket"
	case PFRing:
		return "pfring"
	case PFRingV1:
		return "pfring-v1.0"
	case Memory:
		return "memory"
	default:
		return "unknown"
	}
}

// CostModel is the per-frame CPU cost the mechanism charges on the core
// that performs the I/O: base + perByte*len for each direction. The
// per-byte components are in (possibly fractional) nanoseconds per byte,
// since copy costs on modern hardware sit well below 1 ns/B.
type CostModel struct {
	RecvBase    time.Duration
	RecvPerByte float64 // ns per frame byte
	SendBase    time.Duration
	SendPerByte float64 // ns per frame byte
}

// RecvCost returns the cost of receiving a frame of n buffer bytes.
func (c CostModel) RecvCost(n int) time.Duration {
	return c.RecvBase + time.Duration(float64(n)*c.RecvPerByte)
}

// SendCost returns the cost of sending a frame of n buffer bytes.
func (c CostModel) SendCost(n int) time.Duration {
	return c.SendBase + time.Duration(float64(n)*c.SendPerByte)
}

// Costs returns the calibrated cost model for a mechanism. The constants are
// chosen so the end-to-end numbers land where the paper's did (see DESIGN.md
// "Calibration constants"): the raw socket costs roughly twice what PF_RING
// does for minimum-size frames, and the memory backend is nearly free.
func Costs(m Mechanism) CostModel {
	switch m {
	case RawSocket:
		// recvfrom()+send() syscalls plus a kernel buffer copy each way.
		// Total ≈ 4.3 µs per minimum frame, capping the gateway near
		// 230 Kfps — the ~50% gap below PF_RING that Figure 4.2 shows.
		return CostModel{
			RecvBase: 2200 * time.Nanosecond, RecvPerByte: 0.5,
			SendBase: 2000 * time.Nanosecond, SendPerByte: 0.5,
		}
	case PFRing:
		// Zero-copy polled ring in both directions: ≈ 1.8 µs per minimum
		// frame on the monitor core, comfortably above the testbed's
		// 448 Kfps sender cap, so LVRM+PF_RING tracks native forwarding.
		return CostModel{
			RecvBase: 900 * time.Nanosecond, RecvPerByte: 0.125,
			SendBase: 850 * time.Nanosecond, SendPerByte: 0.125,
		}
	case PFRingV1:
		// PF_RING receive, raw-socket transmit (LVRM 1.0).
		return CostModel{
			RecvBase: 900 * time.Nanosecond, RecvPerByte: 0.125,
			SendBase: 2000 * time.Nanosecond, SendPerByte: 0.5,
		}
	case Memory:
		// Calibrated so the full LVRM path does ≈ 270 ns per 84 B frame
		// (3.7 Mfps) and ≈ 1.1 µs per 1538 B frame (≈ 920 Kfps, 11 Gbps),
		// matching Figure 4.5.
		return CostModel{
			RecvBase: 70 * time.Nanosecond, RecvPerByte: 0.3,
			SendBase: 30 * time.Nanosecond, SendPerByte: 0.25,
		}
	default:
		return CostModel{}
	}
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("netio: adapter closed")

// IOStats counts an adapter's traffic: frames and buffer bytes that crossed
// Recv and Send, plus frames lost at the adapter boundary (full capture ring
// on receive, saturated NIC queue on transmit).
type IOStats struct {
	RxFrames, RxBytes int64
	TxFrames, TxBytes int64
	RxDropped         int64
	TxDropped         int64
	// RxRunts counts inbound payloads too short to hold an Ethernet header;
	// RxOversize counts payloads beyond the maximum frame size. Both are
	// rejected at the adapter boundary before a Frame is built, so only
	// adapters fed by an untrusted wire (UDP) ever report them.
	RxRunts    int64
	RxOversize int64
	// RxRejected counts inbound datagrams refused by the adapter's source
	// allow-list (see UDPConfig.Allow), also before a Frame is built.
	RxRejected int64
	// Peers carries per-source accounting for adapters fed by an untrusted
	// wire (see PeerMeter); nil for adapters with a single known feeder.
	Peers []PeerStat
}

// PeerStat is one traffic source's share of an adapter's inbound traffic.
// Drops aggregates everything rejected at the adapter boundary — runts,
// oversize payloads, and capture-ring overflow — so a misbehaving sender is
// attributable even when nothing it sends becomes a Frame.
type PeerStat struct {
	// Addr is the source IP address, or "other" for the aggregate bucket
	// holding senders beyond the tracking bound.
	Addr   string
	Frames int64
	Bytes  int64
	Drops  int64
}

// PeerMeter is implemented by adapters that attribute inbound traffic to its
// source addresses. The tracked set is bounded; senders past the bound are
// aggregated into a single "other" bucket rather than growing the map.
type PeerMeter interface {
	// PeerStats returns a snapshot of the per-source counters, sorted by
	// address with the "other" bucket (if any) last.
	PeerStats() []PeerStat
}

// Meter is implemented by adapters that count their traffic. The
// observability layer scrapes IOStats into per-adapter frame/byte metrics.
type Meter interface {
	// IOStats returns a snapshot of the adapter's traffic counters.
	IOStats() IOStats
}

// MemoryAdapter serves frames from a preloaded in-RAM trace (Section 3.1's
// third variant). Recv hands out clones of the trace frames sequentially —
// looping if Loop is set — and Send discards frames after counting them,
// exactly like Experiment 1c's "output interface that simply discards".
type MemoryAdapter struct {
	frames []*packet.Frame
	next   int
	// Loop restarts the trace when it is exhausted.
	Loop bool
	// Pool, when non-nil, supplies Recv's copies from recycled buffers
	// instead of heap clones; downstream owners must then Release them
	// (Send does it for the frames it discards).
	Pool   *pool.Pool
	sent   int64
	closed bool

	// Traffic counters are plain ints: the memory adapter only runs on the
	// single-threaded testbed, and the exp1c hot loop cannot afford atomics.
	rxFrames, rxBytes, txBytes int64
}

// NewMemoryAdapter creates a memory adapter over a trace.
func NewMemoryAdapter(frames []*packet.Frame, loop bool) *MemoryAdapter {
	return &MemoryAdapter{frames: frames, Loop: loop}
}

// Recv returns the next trace frame (a shallow copy with fresh metadata; the
// buffer is shared since the VRI path treats payloads read-only except for
// TTL, which the clone isolates).
func (m *MemoryAdapter) Recv() (*packet.Frame, bool) {
	if m.closed || len(m.frames) == 0 {
		return nil, false
	}
	if m.next >= len(m.frames) {
		if !m.Loop {
			return nil, false
		}
		m.next = 0
	}
	var f *packet.Frame
	if m.Pool != nil {
		f = m.Pool.Copy(m.frames[m.next])
	} else {
		f = m.frames[m.next].Clone()
	}
	m.next++
	m.rxFrames++
	m.rxBytes += int64(len(f.Buf))
	return f, true
}

// Send counts and discards the frame, releasing its buffer to the pool it
// came from (a no-op for heap frames).
func (m *MemoryAdapter) Send(f *packet.Frame) error {
	if m.closed {
		return ErrClosed
	}
	m.sent++
	m.txBytes += int64(len(f.Buf))
	f.Release()
	return nil
}

// Sent returns the number of frames discarded by Send.
func (m *MemoryAdapter) Sent() int64 { return m.sent }

// Remaining returns how many frames are left before the trace is exhausted
// (meaningless when looping).
func (m *MemoryAdapter) Remaining() int { return len(m.frames) - m.next }

// IOStats returns the adapter's traffic counters (single-threaded use only).
func (m *MemoryAdapter) IOStats() IOStats {
	return IOStats{RxFrames: m.rxFrames, RxBytes: m.rxBytes, TxFrames: m.sent, TxBytes: m.txBytes}
}

// Name returns "memory".
func (m *MemoryAdapter) Name() string { return "memory" }

// Close marks the adapter closed.
func (m *MemoryAdapter) Close() error { m.closed = true; return nil }

// QueueAdapter is an adapter backed by a pair of SPSC rings. The testbed's
// simulated NIC (or a live feeder goroutine) produces into RX and consumes
// from TX. This is the transport used when LVRM fronts a "network".
type QueueAdapter struct {
	mechanism Mechanism
	rx, tx    *ipc.SPSC[*packet.Frame]
	dropsRx   int64
	dropsTx   int64
	closed    bool

	// Plain counters, like MemoryAdapter: the testbed is single-threaded
	// and these sit on the simulated hot path.
	rxFrames, rxBytes, txFrames, txBytes int64
}

// NewQueueAdapter creates a queue adapter with the given ring capacity,
// labeled with the mechanism it models.
func NewQueueAdapter(mechanism Mechanism, ringCap int) *QueueAdapter {
	return &QueueAdapter{
		mechanism: mechanism,
		rx:        ipc.NewSPSC[*packet.Frame](ringCap),
		tx:        ipc.NewSPSC[*packet.Frame](ringCap),
	}
}

// Inject places a frame in the RX ring, as the NIC would; it reports whether
// there was room (false models a tail drop on the capture ring).
func (q *QueueAdapter) Inject(f *packet.Frame) bool {
	if !q.rx.Enqueue(f) {
		q.dropsRx++
		return false
	}
	return true
}

// Harvest removes one sent frame from the TX ring, as the NIC's transmit
// side would.
func (q *QueueAdapter) Harvest() (*packet.Frame, bool) { return q.tx.Dequeue() }

// Recv polls the RX ring.
func (q *QueueAdapter) Recv() (*packet.Frame, bool) {
	if q.closed {
		return nil, false
	}
	f, ok := q.rx.Dequeue()
	if ok {
		q.rxFrames++
		q.rxBytes += int64(len(f.Buf))
	}
	return f, ok
}

// Send places the frame on the TX ring; a full ring counts as a transmit
// drop (the frame is lost, as on a saturated NIC queue).
func (q *QueueAdapter) Send(f *packet.Frame) error {
	if q.closed {
		return ErrClosed
	}
	if !q.tx.Enqueue(f) {
		q.dropsTx++
		f.Release() // dropped at the boundary: the adapter owned it
		return nil
	}
	q.txFrames++
	q.txBytes += int64(len(f.Buf))
	return nil
}

// Drops returns the RX and TX tail-drop counts.
func (q *QueueAdapter) Drops() (rx, tx int64) { return q.dropsRx, q.dropsTx }

// IOStats returns the adapter's traffic counters (single-threaded use only).
func (q *QueueAdapter) IOStats() IOStats {
	return IOStats{
		RxFrames: q.rxFrames, RxBytes: q.rxBytes,
		TxFrames: q.txFrames, TxBytes: q.txBytes,
		RxDropped: q.dropsRx, TxDropped: q.dropsTx,
	}
}

// RxLen returns the RX ring occupancy.
func (q *QueueAdapter) RxLen() int { return q.rx.Len() }

// Mechanism returns the modeled I/O mechanism.
func (q *QueueAdapter) Mechanism() Mechanism { return q.mechanism }

// Name returns the mechanism label.
func (q *QueueAdapter) Name() string { return q.mechanism.String() }

// Close marks the adapter closed.
func (q *QueueAdapter) Close() error { q.closed = true; return nil }

// ChanAdapter is the live in-process backend: frames move over buffered Go
// channels between a feeder (traffic generator, pcap replayer) and LVRM's
// runtime. Recv never blocks, matching the polling contract.
type ChanAdapter struct {
	RX, TX chan *packet.Frame
	closed bool

	// Atomic counters: the monitor goroutine moves frames while the obs
	// scraper reads concurrently.
	rxFrames, rxBytes, txFrames, txBytes, txDropped atomic.Int64
}

// NewChanAdapter creates a channel adapter with the given buffer depth.
func NewChanAdapter(depth int) *ChanAdapter {
	return &ChanAdapter{
		RX: make(chan *packet.Frame, depth),
		TX: make(chan *packet.Frame, depth),
	}
}

// Recv polls the RX channel.
func (c *ChanAdapter) Recv() (*packet.Frame, bool) {
	select {
	case f := <-c.RX:
		c.rxFrames.Add(1)
		c.rxBytes.Add(int64(len(f.Buf)))
		return f, true
	default:
		return nil, false
	}
}

// Send places the frame on the TX channel, dropping it if full.
func (c *ChanAdapter) Send(f *packet.Frame) error {
	if c.closed {
		return ErrClosed
	}
	// Size the frame before the handoff: ownership transfers at the channel
	// send, and the receiver may release the buffer immediately.
	n := int64(len(f.Buf))
	select {
	case c.TX <- f:
		c.txFrames.Add(1)
		c.txBytes.Add(n)
	default: // saturated transmit queue: tail drop
		c.txDropped.Add(1)
		f.Release()
	}
	return nil
}

// IOStats returns the adapter's traffic counters.
func (c *ChanAdapter) IOStats() IOStats {
	return IOStats{
		RxFrames: c.rxFrames.Load(), RxBytes: c.rxBytes.Load(),
		TxFrames: c.txFrames.Load(), TxBytes: c.txBytes.Load(),
		TxDropped: c.txDropped.Load(),
	}
}

// Name returns "chan".
func (c *ChanAdapter) Name() string { return "chan" }

// Close marks the adapter closed.
func (c *ChanAdapter) Close() error { c.closed = true; return nil }

var (
	_ Adapter = (*MemoryAdapter)(nil)
	_ Adapter = (*QueueAdapter)(nil)
	_ Adapter = (*ChanAdapter)(nil)

	_ Meter = (*MemoryAdapter)(nil)
	_ Meter = (*QueueAdapter)(nil)
	_ Meter = (*ChanAdapter)(nil)
)
