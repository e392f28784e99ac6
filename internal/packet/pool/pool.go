// Package pool implements the zero-allocation frame lifecycle: size-classed,
// sync.Pool-backed pools of *packet.Frame whose buffers are recycled through
// Frame.Release instead of abandoned to the garbage collector. This is the
// user-space analog of the paper's shared-memory buffer reuse (and of the
// netmap/PF_RING buffer pools): at millions of frames per second the per-frame
// make([]byte) at ingest makes the Go GC the real bottleneck, so the steady
// state data path must touch the allocator zero times per frame.
//
// Ownership discipline (see DESIGN.md "Frame ownership"):
//
//   - Get/Copy/Build* hand out a frame with reference count 1; whoever holds
//     the frame owns it and must either pass that ownership on (enqueue,
//     Send) or call Release exactly once.
//   - Fan-out paths call Retain per extra consumer; each consumer Releases.
//   - A holder may mutate Buf in place only while it holds the sole reference
//     (Frame.Shared() == false); otherwise it must take its own Copy.
//   - Release on an unpooled frame is a no-op, so the same code runs
//     unchanged when pooling is disabled.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lvrm/internal/packet"
)

// Size classes. A request is served by the smallest class that fits; larger
// requests fall through to the exact-size pool. 128 covers minimum frames
// (84 B wire = 64 B buffer) with headroom, 512 the common mid-size band, and
// 2048 full 1518 B frames plus the UDP adapter's oversize-detection headroom.
const (
	ClassSmall  = 128
	ClassMedium = 512
	ClassLarge  = 2048
)

// PoisonByte is the sentinel recycled buffers are filled with in poison mode.
const PoisonByte = 0xDE

// Options configures a Pool.
type Options struct {
	// Poison makes RecycleFrame fill released buffers with PoisonByte and
	// Get verify the sentinel is intact before reuse, so a use-after-release
	// panics at the next Get instead of silently corrupting a later frame.
	// For tests and -race CI; it costs a memset per recycle.
	Poison bool
}

// Stats is a snapshot of the pool's counters. Hits, Misses, Steals and
// Recycles are counted; Gets and Outstanding are derived from them.
type Stats struct {
	// Gets counts frames handed out (Get + Copy + builders): Hits + Misses +
	// Steals.
	Gets int64
	// Hits counts Gets served by a recycled buffer of the right class.
	Hits int64
	// Misses counts Gets that had to allocate a fresh buffer.
	Misses int64
	// Steals counts Gets served by a recycled exact-size buffer with a
	// larger capacity than requested (cross-size reuse).
	Steals int64
	// Recycles counts frames returned by Release reaching refcount zero.
	Recycles int64
	// Outstanding is Gets minus Recycles: frames currently held by the
	// pipeline. Every teardown path accounts for its frames (VRI drain
	// migrates or releases queue residue under named counters), so this
	// returns to zero when the pipeline quiesces; a persistent nonzero
	// value is a leak bug, not expected drift.
	Outstanding int64
}

// Pool is a size-classed frame pool. All methods are safe for concurrent use.
type Pool struct {
	poison bool

	classes [3]sizeClass
	exact   sync.Pool // frames whose buffer capacity matches no class

	// The four monotone counts: a Get bumps exactly one of the first three, a
	// recycle the fourth, so a pooled Get+Release pays two shared atomic adds.
	hits, misses, steals, recycles atomic.Int64
}

type sizeClass struct {
	size int
	p    sync.Pool
}

// New creates a pool with default options.
func New() *Pool { return NewWithOptions(Options{}) }

// NewWithOptions creates a pool.
func NewWithOptions(o Options) *Pool {
	p := &Pool{poison: o.Poison}
	p.classes[0].size = ClassSmall
	p.classes[1].size = ClassMedium
	p.classes[2].size = ClassLarge
	return p
}

// Poisoned reports whether the pool runs in poison mode.
func (p *Pool) Poisoned() bool { return p.poison }

// Get returns a frame with a buffer of length n and reference count 1. The
// buffer content is undefined (recycled buffers are not cleared; in poison
// mode they hold PoisonByte): callers must overwrite all n bytes.
func (p *Pool) Get(n int) *packet.Frame {
	if n < 0 {
		panic(fmt.Sprintf("pool: negative frame size %d", n))
	}
	if c := p.classFor(n); c != nil {
		if v := c.p.Get(); v != nil {
			f := v.(*packet.Frame)
			p.checkPoison(f)
			p.hits.Add(1)
			return p.prepare(f, n)
		}
		p.misses.Add(1)
		f := &packet.Frame{Buf: make([]byte, n, c.size), Out: -1}
		f.AttachPool(p)
		return f
	}
	// Oversize request: the exact pool holds whatever capacities were
	// released into it. A recycled buffer big enough is a steal; one too
	// small is dropped back to the GC and a fresh buffer allocated.
	if v := p.exact.Get(); v != nil {
		f := v.(*packet.Frame)
		if cap(f.Buf) >= n {
			p.checkPoison(f)
			p.steals.Add(1)
			return p.prepare(f, n)
		}
	}
	p.misses.Add(1)
	f := &packet.Frame{Buf: make([]byte, n), Out: -1}
	f.AttachPool(p)
	return f
}

// prepare resets a recycled frame's metadata for hand-out.
func (p *Pool) prepare(f *packet.Frame, n int) *packet.Frame {
	f.Buf = f.Buf[:n]
	f.In, f.Out, f.Timestamp = 0, -1, 0
	f.AttachPool(p)
	return f
}

// Copy returns a pooled deep copy of src (buffer bytes and metadata), the
// allocation-free replacement for Frame.Clone on hot paths. src may be pooled
// or not; its reference count is untouched.
func (p *Pool) Copy(src *packet.Frame) *packet.Frame {
	f := p.Get(len(src.Buf))
	copy(f.Buf, src.Buf)
	f.In, f.Out, f.Timestamp = src.In, src.Out, src.Timestamp
	return f
}

// BuildUDP is packet.BuildUDP into a pooled buffer.
func (p *Pool) BuildUDP(o packet.UDPBuildOpts) (*packet.Frame, error) {
	n, err := packet.UDPFrameLen(o)
	if err != nil {
		return nil, err
	}
	f := p.Get(n)
	if err := packet.BuildUDPInto(o, f.Buf); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// BuildTCP is packet.BuildTCP into a pooled buffer.
func (p *Pool) BuildTCP(o packet.TCPBuildOpts) (*packet.Frame, error) {
	n, err := packet.TCPFrameLen(o)
	if err != nil {
		return nil, err
	}
	f := p.Get(n)
	if err := packet.BuildTCPInto(o, f.Buf); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// BuildICMPEcho is packet.BuildICMPEcho into a pooled buffer.
func (p *Pool) BuildICMPEcho(o packet.ICMPBuildOpts) (*packet.Frame, error) {
	n, err := packet.ICMPFrameLen(o)
	if err != nil {
		return nil, err
	}
	f := p.Get(n)
	if err := packet.BuildICMPEchoInto(o, f.Buf); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// RecycleFrame implements packet.Recycler: Frame.Release calls it when the
// reference count reaches zero. The frame's buffer returns to the pool of its
// capacity class (or the exact pool), full capacity restored.
func (p *Pool) RecycleFrame(f *packet.Frame) {
	p.recycles.Add(1)
	f.Buf = f.Buf[:cap(f.Buf)]
	if p.poison {
		for i := range f.Buf {
			f.Buf[i] = PoisonByte
		}
	}
	f.In, f.Out, f.Timestamp = 0, -1, 0
	switch cap(f.Buf) {
	case ClassSmall:
		p.classes[0].p.Put(f)
	case ClassMedium:
		p.classes[1].p.Put(f)
	case ClassLarge:
		p.classes[2].p.Put(f)
	default:
		p.exact.Put(f)
	}
}

// classFor returns the smallest size class that fits n, or nil when n exceeds
// the largest class.
func (p *Pool) classFor(n int) *sizeClass {
	for i := range p.classes {
		if n <= p.classes[i].size {
			return &p.classes[i]
		}
	}
	return nil
}

// checkPoison panics if a poisoned buffer was written after its release —
// the writer held a stale reference past its Release.
func (p *Pool) checkPoison(f *packet.Frame) {
	if !p.poison {
		return
	}
	b := f.Buf[:cap(f.Buf)]
	for i, v := range b {
		if v != PoisonByte {
			panic(fmt.Sprintf(
				"pool: buffer written after release (byte %d of %d is %#02x, want %#02x): use-after-release",
				i, len(b), v, PoisonByte))
		}
	}
}

// Stats returns a snapshot of the pool's counters. Recycles is read first:
// every recycle it counts was preceded by the Get it returns, and that Get is
// already in the hit, miss or steal read after it, so a snapshot taken while
// frames move never shows Outstanding below zero.
func (p *Pool) Stats() Stats {
	s := Stats{Recycles: p.recycles.Load()}
	s.Hits, s.Misses, s.Steals = p.hits.Load(), p.misses.Load(), p.steals.Load()
	s.Gets = s.Hits + s.Misses + s.Steals
	s.Outstanding = s.Gets - s.Recycles
	return s
}

var _ packet.Recycler = (*Pool)(nil)
