package main

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/packet"
	"lvrm/internal/vr"
)

// Span names. A sampled frame's three stage spans (pre_engine, engine,
// post_engine) share its request id.
const (
	spanRun = iota
	spanPhase
	spanSlice
	spanPreEngine
	spanEngine
	spanPostEngine
	spanRecvDispatch
	spanStep
	spanRelay
	spanRIBApply
	spanRIBPublish
	spanRIBConverge
)

var spanNames = [...]string{
	"run", "phase", "slice", "pre_engine", "engine", "post_engine",
	"core.recv_dispatch", "core.step", "core.relay", "rib.apply", "rib.publish", "rib.converge",
}

// span is one traced interval. req groups the spans of one request (a
// sampled frame: flow index and sequence number); 0 means none.
type span struct {
	id, parent uint64
	req        uint64
	start, end int64 // nowNs
	frames     int32
	name       uint8
	label      string // phases and slices only
}

const spanCap = 1 << 17

// spanLog keeps spans in a preallocated buffer until the run ends. Any
// goroutine may add; when the buffer is full, further spans are counted and
// dropped, never written through to disk mid-run.
type spanLog struct {
	buf     []span
	n       atomic.Int64
	ids     atomic.Uint64
	parent  atomic.Uint64 // current phase or slice: parent of sampled spans
	dropped atomic.Int64
}

func newSpanLog() *spanLog { return &spanLog{buf: make([]span, spanCap)} }

// add records s, giving it an id (and the current parent) when it has none.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	if s.id == 0 {
		s.id = l.ids.Add(1)
	}
	if s.parent == 0 && s.name != spanRun {
		s.parent = l.parent.Load()
	}
	i := l.n.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return
	}
	l.buf[i] = s
}

// open starts a phase or slice span and makes it the parent of what follows;
// the returned func closes it and restores the previous parent.
func (l *spanLog) open(name uint8, label string) (close func()) {
	if l == nil {
		return func() {}
	}
	id, prev, start := l.ids.Add(1), l.parent.Load(), nowNs()
	l.parent.Store(id)
	return func() {
		l.parent.Store(prev)
		l.add(span{id: id, parent: prev, name: name, label: label, start: start, end: nowNs()})
	}
}

func (l *spanLog) count() int64 { return min(l.n.Load(), int64(len(l.buf))) }

// write stores the spans as JSON lines, oldest start first.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := l.buf[:l.count()]
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.start, y.start) })
	w := bufio.NewWriterSize(f, 1<<16)
	var b []byte
	for i := range spans {
		s := &spans[i]
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendUint(b, s.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.parent, 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, spanNames[s.name])
		if s.label != "" {
			b = append(b, `,"label":`...)
			b = strconv.AppendQuote(b, s.label)
		}
		if s.req != 0 {
			b = append(b, `,"req":`...)
			b = strconv.AppendUint(b, s.req, 10)
		}
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"frames":`...)
		b = strconv.AppendInt(b, int64(s.frames), 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// series collects uint32 samples from any goroutine into a fixed buffer; it
// is read once the writers are quiet.
type series struct {
	v []uint32
	n atomic.Int64
}

func (s *series) reset(capacity int) {
	if cap(s.v) < capacity {
		s.v = make([]uint32, capacity)
	}
	s.v = s.v[:capacity]
	s.n.Store(0)
}

func (s *series) add(x uint32) {
	if i := s.n.Add(1) - 1; i < int64(len(s.v)) {
		s.v[i] = x
	}
}

// medians cuts the samples at the given counts (the first cut is 0) and
// returns each non-empty piece's median, in microseconds.
func (s *series) medians(cuts []int64) []float64 {
	var out []float64
	from := int64(0)
	for _, to := range cuts {
		to = min(to, int64(len(s.v)))
		if piece := s.v[from:max(to, from)]; len(piece) > 0 {
			slices.Sort(piece)
			out = append(out, quantile(piece, 0.5)/1e3)
		}
		from = max(to, from)
	}
	return out
}

// preemptedNs: a sampled interval this long around one sub-microsecond call
// had the thread descheduled inside it; it says nothing about the call and
// would move a mean by itself, so it is left out.
const preemptedNs = 20000

// timerNs is what one nowNs-to-nowNs interval measures around nothing; it is
// taken off every sampled duration.
func timerNs() int64 {
	best := int64(1 << 62)
	for i := 0; i < 2000; i++ {
		t0 := nowNs()
		if d := nowNs() - t0; d < best {
			best = d
		}
	}
	return best
}

// probes is the traced run's decoration of the public configuration: a
// counting clock, a sampling engine wrapper and a sampling balancer wrapper.
// All three only observe.
type probes struct {
	spans   *spanLog
	timerNs int64

	clockReads atomic.Int64

	picks            atomic.Int64
	pickNs, pickSamp atomic.Int64

	engineNs, engineN atomic.Int64 // sampled, timer overhead taken off
	engineSpans       atomic.Int64
	pre               series // paced: due -> engine entry, ns
}

// engineSpanEvery: saturation makes ~100k sampled engine calls a second; one
// in 64 of them leaves a span.
const engineSpanEvery = 64

func newProbes(spans *spanLog) *probes { return &probes{spans: spans, timerNs: timerNs()} }

func (p *probes) decor() decor {
	return decor{
		spans: p.spans,
		clock: func() int64 { p.clockReads.Add(1); return core.WallClock() },
		engine: func(inner vr.Factory) vr.Factory {
			return func() (vr.Engine, error) {
				e, err := inner()
				if err != nil {
					return nil, err
				}
				return &probedEngine{inner: e, p: p}, nil
			}
		},
		balancer: func(inner balance.Balancer) balance.Balancer { return &probedBalancer{inner: inner, p: p} },
	}
}

// probedEngine times one Process call in 16, and every frame the generator
// flagged. It forwards RoutePinner and StateDeclarer so that wrapping never
// turns FIB pinning or the state declaration off.
type probedEngine struct {
	inner vr.Engine
	p     *probes
	n     uint64
}

func (e *probedEngine) Name() string { return e.inner.Name() }

func (e *probedEngine) PinRoutes() uint64 {
	if pin, ok := e.inner.(vr.RoutePinner); ok {
		return pin.PinRoutes()
	}
	return 0
}

func (e *probedEngine) StateSpec() vr.StateSpec { return vr.SpecOf(e.inner) }

func (e *probedEngine) Process(f *packet.Frame) (time.Duration, error) {
	e.n++
	flagged := len(f.Buf) > stampFlags && f.Buf[stampFlags]&flagSampled != 0
	if e.n&15 != 0 && !flagged {
		return e.inner.Process(f)
	}
	t0 := nowNs()
	cost, err := e.inner.Process(f)
	t1 := nowNs()
	p := e.p
	if t1-t0 < preemptedNs {
		p.engineNs.Add(max(t1-t0-p.timerNs, 0))
		p.engineN.Add(1)
	}
	if flagged {
		due := int64(binary.LittleEndian.Uint64(f.Buf[stampOff+8:]))
		p.pre.add(uint32(min(max(t0-due, 0), lostLatency)))
		f.Timestamp = t1 // the sink reads it back as the engine-exit time
		if f.Buf[stampFlags]&flagSpan != 0 {
			req := reqID(f.Buf)
			p.spans.add(span{name: spanPreEngine, req: req, start: due, end: t0, frames: 1})
			p.spans.add(span{name: spanEngine, req: req, start: t0, end: t1, frames: 1})
		}
	} else if p.engineSpans.Add(1)%engineSpanEvery == 0 {
		p.spans.add(span{name: spanEngine, start: t0, end: t1, frames: 1})
	}
	return cost, err
}

func (p *probes) engineMeanNs() float64 {
	if n := p.engineN.Load(); n > 0 {
		return float64(p.engineNs.Load()) / float64(n)
	}
	return 0
}

type probedBalancer struct {
	inner balance.Balancer
	p     *probes
}

func (b *probedBalancer) Name() string { return b.inner.Name() }

func (b *probedBalancer) Pick(targets []balance.Target, f *packet.Frame) int {
	if b.p.picks.Add(1)&15 != 0 {
		return b.inner.Pick(targets, f)
	}
	t0 := nowNs()
	i := b.inner.Pick(targets, f)
	if d := nowNs() - t0; d < preemptedNs {
		b.p.pickNs.Add(max(d-b.p.timerNs, 0))
		b.p.pickSamp.Add(1)
	}
	return i
}

var (
	_ vr.Engine        = (*probedEngine)(nil)
	_ vr.RoutePinner   = (*probedEngine)(nil)
	_ vr.StateDeclarer = (*probedEngine)(nil)
)
