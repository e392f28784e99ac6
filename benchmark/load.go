package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"time"

	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/packet/pool"
)

// epoch anchors nowNs. time.Since on a Time that carries a monotonic reading
// costs one vDSO clock read, half of time.Now.
var epoch = time.Now()

// nowNs is the benchmark's clock: monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// Every generated frame carries an 18-byte stamp at the start of its UDP
// payload, which is all the payload a minimum-size frame has:
//
//	0  flow index (u32)    8  due time, nowNs (i64)   16 flags
//	4  per-flow seq (u32)                              17 check byte
const (
	stampOff    = packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen
	stampLen    = 18
	stampFlags  = stampOff + 16
	stampCheck  = stampOff + 17
	flagSampled = 1 // traced paced run: the engine decorator stamps this frame
	flagSpan    = 2 // and its three stage spans are recorded
	sentTTL     = 64
)

func stampSum(b []byte) byte {
	x := byte(0xA5)
	for _, v := range b[stampOff:stampCheck] {
		x ^= v
	}
	return x
}

// A frame fails in exactly one of these ways.
const (
	failLost      = iota // never delivered: refused by a full ring, dropped, leaked
	failReordered        // delivered behind a later frame of its flow
	failMisrouted        // left on an interface outside the allowed set
	failTTL              // TTL is not sent-1
	failChecksum         // IPv4 header checksum is wrong
	failStamp            // stamp or addresses damaged
	nFailClasses
)

var failNames = [nFailClasses]string{"lost", "reordered", "misrouted", "ttl", "checksum", "stamp"}

const (
	modeIdle int32 = iota
	modeClosed
	modePaced
)

const (
	closedWindow = 512  // frames in flight in the closed loop
	pacedWindow  = 2048 // in-flight cap and lateness cap of the open loop; below DataQueueCap
	lostLatency  = math.MaxUint32
)

// loadAdapter is the benchmark's netio.Adapter: the paper's "memory backend"
// (Experiments 1c/1d) with pacing and verification. RecvBatch generates
// stamped copies of the seeded template frames and Send verifies and
// releases them, both on the monitor goroutine, so load costs no thread of
// its own. The main goroutine steers it through mode and reads atomics.
type loadAdapter struct {
	pool  *pool.Pool
	tmpl  []packet.Frame // one template per flow
	allow []uint8        // per flow: bit i set = out-interface i is correct

	// Monitor-goroutine state.
	nextFlow int
	sendSeq  []uint32 // per flow: next sequence number to stamp
	wantSeq  []uint32 // per flow: next sequence number expected back
	one      [1]*packet.Frame
	sendN    uint64
	orphans  int64 // frames counted failStamp whose flow could not be read

	// Written by main while the adapter is idle, published by mode.Store.
	anchor     int64 // paced: due time of frame pacedBase
	periodNs   int64
	pacedBase  int64 // offered count when the paced phase began
	stampTrace bool  // paced: flag one frame in 16 for the engine decorator
	lat        [][]uint32
	spans      *spanLog // nil on untraced runs

	mode    atomic.Int32
	idleAck atomic.Bool  // the generator has seen modeIdle
	limit   atomic.Int64 // absolute bound on offered
	slice   atomic.Int32 // index into lat of the slice being measured

	offered atomic.Int64
	settled atomic.Int64 // delivered or known failed: no longer in flight
	fails   [nFailClasses]atomic.Int64

	notifyAt    atomic.Int64
	notifyArmed atomic.Bool
	notifyCh    chan struct{}

	polls, emptyPolls atomic.Int64
	latDropped        atomic.Int64
	maxLateNs         atomic.Int64
	lateResets        atomic.Int64
	genNs             atomic.Int64 // traced: time inside RecvBatch while generating
	sinkNs, sinkN     atomic.Int64 // traced: sampled time inside Send
	post              series       // traced paced: engine exit -> Send, ns
}

func newLoadAdapter(p *pool.Pool, in *inputs, spans *spanLog) *loadAdapter {
	a := &loadAdapter{
		pool: p, tmpl: in.tmpl, allow: in.allow, spans: spans,
		sendSeq: make([]uint32, len(in.tmpl)),
		wantSeq: make([]uint32, len(in.tmpl)),
	}
	a.limit.Store(math.MaxInt64)
	a.idleAck.Store(true)
	return a
}

func (a *loadAdapter) Name() string { return "load" }
func (a *loadAdapter) Close() error { return nil }

func (a *loadAdapter) Recv() (*packet.Frame, bool) {
	if a.RecvBatch(a.one[:]) == 0 {
		return nil, false
	}
	f := a.one[0]
	a.one[0] = nil
	return f, true
}

// RecvBatch is the generator. Closed loop: keep closedWindow frames in
// flight. Open loop: hand out every frame whose due time has passed, each
// stamped with that due time, so a late generator shows up as latency.
func (a *loadAdapter) RecvBatch(out []*packet.Frame) int {
	a.polls.Add(1)
	mode := a.mode.Load()
	if mode == modeIdle {
		a.idleAck.Store(true)
		a.emptyPolls.Add(1)
		return 0
	}
	offered := a.offered.Load()
	inflight := offered - a.settled.Load()
	n := int64(len(out))
	if r := a.limit.Load() - offered; r < n {
		n = r
	}
	var now, due0 int64
	if a.spans != nil || mode == modePaced {
		now = nowNs()
	}
	if mode == modeClosed {
		if r := closedWindow - inflight; r < n {
			n = r
		}
	} else {
		k := offered - a.pacedBase
		backlog := (now-a.anchor)/a.periodNs + 1 - k
		if backlog > pacedWindow {
			// The generator is further behind than the in-flight cap could
			// ever absorb: forgive the debt instead of bursting, and count it.
			a.lateResets.Add(1)
			a.anchor = now - k*a.periodNs
			backlog = 1
		}
		if backlog < n {
			n = backlog
		}
		if r := pacedWindow - inflight; r < n {
			n = r
		}
		due0 = a.anchor + k*a.periodNs
		if n > 0 {
			if late := now - due0; late > a.maxLateNs.Load() {
				a.maxLateNs.Store(late)
			}
		}
	}
	if n <= 0 {
		a.emptyPolls.Add(1)
		return 0
	}
	for i := int64(0); i < n; i++ {
		fl := a.nextFlow
		if a.nextFlow++; a.nextFlow == len(a.tmpl) {
			a.nextFlow = 0
		}
		f := a.pool.Copy(&a.tmpl[fl])
		b := f.Buf
		binary.LittleEndian.PutUint32(b[stampOff:], uint32(fl))
		binary.LittleEndian.PutUint32(b[stampOff+4:], a.sendSeq[fl])
		a.sendSeq[fl]++
		var due int64
		var flags byte
		if mode == modePaced {
			due = due0 + i*a.periodNs
			if a.stampTrace && (offered+i)&15 == 0 {
				flags = flagSampled
				if (offered+i)&63 == 0 {
					flags |= flagSpan
				}
			}
		}
		binary.LittleEndian.PutUint64(b[stampOff+8:], uint64(due))
		b[stampFlags] = flags
		b[stampCheck] = stampSum(b)
		out[i] = f
	}
	a.offered.Add(n)
	if a.spans != nil {
		a.genNs.Add(nowNs() - now)
	}
	return int(n)
}

// Send is the sink: verify, record latency, release.
func (a *loadAdapter) Send(f *packet.Frame) error {
	var t0 int64
	a.sendN++
	timed := a.spans != nil && a.sendN&15 == 0
	if timed {
		t0 = nowNs()
	}
	class, fl := a.verify(f)
	settle := int64(1)
	if fl >= 0 {
		// Order within the flow. A gap means the frames before this one are
		// lost, or late; a late one converts its loss into a reorder.
		seq := binary.LittleEndian.Uint32(f.Buf[stampOff+4:])
		switch d := int32(seq - a.wantSeq[fl]); {
		case d == 0:
			a.wantSeq[fl]++
		case d > 0:
			// A frame whose stamp was too damaged to name its flow has been
			// counted already; it is one of the missing ones.
			lost := int64(d)
			known := min(lost, a.orphans)
			a.orphans -= known
			lost -= known
			a.fails[failLost].Add(lost)
			settle += lost
			a.recordLost(int(lost))
			a.wantSeq[fl] = seq + 1
		default:
			a.fails[failLost].Add(-1)
			class, settle = failReordered, 0
		}
	}
	if class >= 0 {
		a.fails[class].Add(1)
		if fl < 0 {
			a.orphans++
		}
	}
	if a.mode.Load() == modePaced {
		lat := uint32(lostLatency)
		if class < 0 {
			due := int64(binary.LittleEndian.Uint64(f.Buf[stampOff+8:]))
			now := nowNs()
			if d := now - due; d < lostLatency {
				lat = uint32(max(d, 0))
			}
			if f.Buf[stampFlags]&flagSampled != 0 {
				a.post.add(uint32(min(max(now-f.Timestamp, 0), lostLatency)))
				if f.Buf[stampFlags]&flagSpan != 0 {
					a.spans.add(span{name: spanPostEngine, req: reqID(f.Buf), start: f.Timestamp, end: now, frames: 1})
				}
			}
		}
		a.recordLatency(lat)
	}
	f.Release()
	if s := a.settled.Add(settle); s >= a.notifyAt.Load() && a.notifyArmed.CompareAndSwap(true, false) {
		close(a.notifyCh)
	}
	if timed {
		if d := nowNs() - t0; d < preemptedNs {
			a.sinkNs.Add(d)
			a.sinkN.Add(1)
		}
	}
	return nil
}

// verify classifies one delivered frame: -1 for a good one, and the flow it
// belongs to (-1 when the stamp is too damaged to say).
func (a *loadAdapter) verify(f *packet.Frame) (class, flow int) {
	b := f.Buf
	if len(b) < stampOff+stampLen || stampSum(b) != b[stampCheck] {
		return failStamp, -1
	}
	fl := int(binary.LittleEndian.Uint32(b[stampOff:]))
	if fl >= len(a.tmpl) {
		return failStamp, -1
	}
	t := a.tmpl[fl].Buf
	const addrs = packet.EthHeaderLen + 12 // source and destination address
	ip := b[packet.EthHeaderLen : packet.EthHeaderLen+packet.IPv4HeaderLen]
	switch {
	case len(b) != len(t) || !bytes.Equal(b[addrs:addrs+8], t[addrs:addrs+8]):
		return failStamp, fl
	case packet.Checksum(ip) != 0:
		return failChecksum, fl
	case ip[8] != sentTTL-1:
		return failTTL, fl
	case f.Out < 0 || f.Out > 7 || a.allow[fl]&(1<<uint(f.Out)) == 0:
		return failMisrouted, fl
	}
	return -1, fl
}

func (a *loadAdapter) recordLatency(lat uint32) {
	s := &a.lat[a.slice.Load()]
	if len(*s) < cap(*s) {
		*s = append(*s, lat)
		return
	}
	a.latDropped.Add(1)
}

// recordLost gives every frame known lost the worst latency, so that a
// failed frame misses any latency limit.
func (a *loadAdapter) recordLost(n int) {
	if a.mode.Load() != modePaced {
		return
	}
	for ; n > 0; n-- {
		a.recordLatency(lostLatency)
	}
}

func reqID(b []byte) uint64 { return binary.LittleEndian.Uint64(b[stampOff:]) }

// failed is the number of frames known failed so far.
func (a *loadAdapter) failed() int64 {
	var n int64
	for i := range a.fails {
		n += a.fails[i].Load()
	}
	return n
}

// delivered is the number of frames that came back in order and intact.
func (a *loadAdapter) delivered() int64 { return a.settled.Load() - a.failed() }

// setMode switches the generator. Only call it with the adapter idle and
// acknowledged, or to make it idle.
func (a *loadAdapter) setMode(m int32) {
	if m != modeIdle {
		a.idleAck.Store(false)
	}
	a.mode.Store(m)
}

// waitSettled blocks until settled reaches target or the timeout passes, and
// reports which. The wake-up comes from Send itself, so a timed set-up is
// not rounded up to a polling interval.
func (a *loadAdapter) waitSettled(target int64, timeout time.Duration) bool {
	a.notifyCh = make(chan struct{})
	a.notifyAt.Store(target)
	a.notifyArmed.Store(true)
	if a.settled.Load() >= target && a.notifyArmed.CompareAndSwap(true, false) {
		close(a.notifyCh)
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-a.notifyCh:
		return true
	case <-t.C:
		// Disarm, unless Send is closing the channel right now.
		if !a.notifyArmed.CompareAndSwap(true, false) {
			<-a.notifyCh
			return true
		}
		return false
	}
}

// quiesce stops the generator and waits for every frame in flight to come
// back. Frames still missing after the timeout are lost.
func (a *loadAdapter) quiesce(timeout time.Duration) bool {
	a.setMode(modeIdle)
	deadline := time.Now().Add(timeout)
	for !a.idleAck.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return a.waitSettled(a.offered.Load(), time.Until(deadline))
}

// closeBooks runs once the runtime has stopped: whatever was offered and
// never settled is lost.
func (a *loadAdapter) closeBooks() {
	if d := a.offered.Load() - a.settled.Load(); d > 0 {
		a.fails[failLost].Add(d)
		a.settled.Add(d)
	}
}

var (
	_ netio.Adapter     = (*loadAdapter)(nil)
	_ netio.BatchRecver = (*loadAdapter)(nil)
)
