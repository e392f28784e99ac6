package core

import (
	"lvrm/internal/ipc"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
)

// This file is LVRM's data path: classify captured frames to a VR, dispatch
// them into the VR's VRIs, and relay the VRIs' output (data and control)
// back through the socket adapter. Everything here runs on the monitor
// goroutine (or the single-threaded testbed), the only producer onto every
// VRI's incoming queues.

// Classify returns the VR that should process the frame, per the source-IP
// rule of Chapter 2 (first matching VR wins).
func (l *LVRM) Classify(f *packet.Frame) (*VR, bool) {
	m := packet.ParseMeta(f)
	v := classify(l.vrList(), &m, f)
	return v, v != nil
}

// classify scans the VR list for the first VR that claims the frame, whose
// headers are already parsed into m; nil means no VR does.
func classify(vrs []*VR, m *packet.Meta, f *packet.Frame) *VR {
	for _, v := range vrs {
		if v.match(m, f) {
			return v
		}
	}
	return nil
}

// parsed is the per-frame scratch of one burst: the frame's headers, parsed
// once, and the VR that claimed it (nil = unclassified).
type parsed struct {
	meta packet.Meta
	vr   *VR
}

// dispatchBurst is the one dispatch body: RecvDispatchBatch funnels each burst
// of frames received at time now through it. Fixed costs are paid per burst
// (the caller's clock read, the received/unclassified counters), per VR run
// (arrival estimate, target list) or per VRI run (the ring's
// cursor publication); only the header parse, the classify compare and the
// balancer pick stay per frame. scratch must have one entry per frame. It
// returns how many frames a VRI queue accepted; the rest were released, each
// under a named counter.
func (l *LVRM) dispatchBurst(frames []*packet.Frame, scratch []parsed, now int64) (accepted int) {
	vrs := l.vrList()
	for i, f := range frames {
		f.Timestamp = now
		p := &scratch[i]
		p.meta = packet.ParseMeta(f)
		p.vr = classify(vrs, &p.meta, f)
	}
	l.received.Add(int64(len(frames)))
	unclassified := 0
	for i := 0; i < len(frames); {
		v := scratch[i].vr
		j := i + 1
		for j < len(frames) && scratch[j].vr == v {
			j++
		}
		if v == nil {
			unclassified += j - i
			releaseAll(frames[i:j])
		} else {
			accepted += v.dispatch(frames[i:j], scratch[i:j], now, burstArrivals(scratch, i))
		}
		i = j
	}
	if unclassified > 0 {
		l.unclassified.Add(int64(unclassified))
	}
	return accepted
}

// burstArrivals counts the burst's frames that belong to the VR of the run
// starting at scratch[i], or returns 0 when an earlier run of the burst
// already reported them. A VR whose frames interleave with another's is cut
// into several runs, all stamped with the burst's one timestamp; reporting
// the whole burst's count once keeps its arrival estimate a per-frame rate
// (see estimate.ArrivalRate.ObserveN).
func burstArrivals(scratch []parsed, i int) int {
	v, n := scratch[i].vr, 0
	for k := range scratch {
		if scratch[k].vr == v {
			if k < i {
				return 0
			}
			n++
		}
	}
	return n
}

// releaseAll returns every frame of a refused run to its pool.
func releaseAll(frames []*packet.Frame) {
	for _, f := range frames {
		f.Release()
	}
}

// RecvDispatchBatch drains up to budget frames (<= 0 = until the adapter is
// empty) from the socket adapter in Config.RecvBatch-sized bursts — one
// adapter poll, one clock read and one dispatchBurst per burst — and returns
// how many frames it received. The paced allocation check runs after each
// burst, so the VRI set never changes in the middle of one.
func (l *LVRM) RecvDispatchBatch(budget int) int {
	total := 0
	for budget <= 0 || total < budget {
		want := l.cfg.RecvBatch
		if budget > 0 {
			if r := budget - total; want > r {
				want = r
			}
		}
		buf := l.recvBuf[:want]
		n := netio.RecvBatch(l.cfg.Adapter, buf)
		if n > 0 {
			now := l.cfg.Clock()
			l.dispatchBurst(buf[:n], l.burstBuf[:n], now)
			clear(buf[:n])
			l.MaybeAllocate(now)
		}
		total += n
		if n < want {
			break // adapter drained
		}
	}
	return total
}

// sendBatch forwards buf[:n] to the socket adapter, counting successes in
// sent and failures in sendErrs — a frame that dequeued but failed to send
// is lost, and the loss must be visible in Stats rather than silent. It
// returns how many frames were sent successfully.
func (l *LVRM) sendBatch(buf []*packet.Frame, n int) int {
	ok := 0
	for i := 0; i < n; i++ {
		f := buf[i]
		buf[i] = nil
		if err := l.cfg.Adapter.Send(f); err != nil {
			l.sendErrs.Add(1)
			f.Release() // Send consumes only on success; the loss is ours
			continue
		}
		ok++
	}
	l.sent.Add(int64(ok))
	return ok
}

// relay moves up to max frames from a's outgoing data queue to the socket
// adapter in one burst — one cursor acquire/release on the lock-free rings —
// and returns how many left the queue and how many of those were sent. The
// difference was lost to send failures, counted in Stats.SendErrors; such a
// frame is gone from the queue all the same, so it settles like the rest.
// Monitor goroutine only: relayBuf is its scratch.
func (l *LVRM) relay(a *VRIAdapter, max int) (n, sent int) {
	if cap(l.relayBuf) < max {
		l.relayBuf = make([]*packet.Frame, max)
	}
	buf := l.relayBuf[:max]
	n = ipc.DequeueBatch(a.Data.Out, buf)
	if n > 0 {
		sent = l.sendBatch(buf, n)
		a.settled.Add(int64(n))
	}
	return n, sent
}

// RelayOut drains up to budget frames (0 = no limit) from every VRI's
// outgoing data queue into the socket adapter, Config.RelayBatch at a time,
// and returns how many were sent.
func (l *LVRM) RelayOut(budget int) int {
	sent := 0
	for _, v := range l.vrList() {
		for _, a := range v.vriList() {
			for budget <= 0 || sent < budget {
				want := l.cfg.RelayBatch
				if budget > 0 {
					if r := budget - sent; want > r {
						want = r
					}
				}
				n, ok := l.relay(a, want)
				sent += ok
				if n < want {
					break // queue drained
				}
			}
		}
	}
	return sent
}

// RelayFrom drains up to max frames from the given VRI's outgoing data queue
// into the socket adapter and returns how many frames were consumed from the
// queue (sent or lost to a counted send failure). The testbed uses it so
// each VRI's completions relay that VRI's own output (a global scan would
// starve later VRIs whenever an earlier one is busy).
func (l *LVRM) RelayFrom(a *VRIAdapter, max int) int {
	if max < 1 {
		max = 1
	}
	n, _ := l.relay(a, max)
	return n
}

// RelayControl moves pending control events from every VRI's outgoing
// control queue to their destinations' incoming control queues. Events to
// unknown destinations are dropped and counted.
func (l *LVRM) RelayControl() int {
	moved := 0
	for _, v := range l.vrList() {
		for _, a := range v.vriList() {
			for {
				ev, ok := a.Control.Out.Dequeue()
				if !ok {
					break
				}
				if l.deliverControl(ev) {
					moved++
				} else {
					l.ctlDropped.Add(1)
				}
			}
		}
	}
	return moved
}

func (l *LVRM) deliverControl(ev *ControlEvent) bool {
	vrs := l.vrList()
	if ev.DstVR < 0 || ev.DstVR >= len(vrs) {
		return false
	}
	dst, ok := snapshotByID(vrs[ev.DstVR].vriList(), ev.DstVRI)
	if !ok {
		return false
	}
	if !dst.Control.In.Enqueue(ev) {
		return false
	}
	l.ctlRelayed.Add(1)
	return true
}
