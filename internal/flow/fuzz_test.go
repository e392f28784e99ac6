package flow

import (
	"math/rand"
	"testing"
)

// modelPin is the oracle's view of one pin.
type modelPin struct {
	vri   int
	stale bool
}

// model is a map-backed flow table: what Table must do, without a slab or
// owner slots. It never overflows, so the fuzz table is sized to stay below
// its capacity.
type model struct {
	pins map[uint64]modelPin // by tag
	st   Stats
}

func (m *model) assign(key uint64, keep func(int) bool, pick func() int) (int, Outcome) {
	tag := key & tagMask
	p, ok := m.pins[tag]
	switch {
	case ok && !p.stale:
		m.st.Hits++
		return p.vri, Hit
	case ok && keep(p.vri):
		m.pins[tag] = modelPin{vri: p.vri}
		m.st.Refreshes++
		return p.vri, Refreshed
	}
	next := pick()
	switch {
	case next < 0 && ok:
		delete(m.pins, tag)
		m.st.Unpinned++
		m.st.Refusals++
		return next, Refused
	case next < 0:
		m.st.Refusals++
		return next, Refused
	}
	m.pins[tag] = modelPin{vri: next}
	if ok {
		m.st.Rebalances++
		return next, Rebalanced
	}
	m.st.Misses++
	return next, Miss
}

// hit is what AssignHits resolves key to, or -1.
func (m *model) hit(key uint64) int {
	if p, ok := m.pins[key&tagMask]; ok && !p.stale {
		return p.vri
	}
	return -1
}

func (m *model) transfer(src int, dst func(uint64) int) int {
	changed := 0
	for tag, p := range m.pins {
		if p.vri != src {
			continue
		}
		next := dst(tag)
		if next == src {
			continue
		}
		changed++
		if next < 0 {
			delete(m.pins, tag)
			m.st.Unpinned++
			continue
		}
		m.pins[tag] = modelPin{vri: next}
		m.st.Rebalances++
	}
	return changed
}

// fuzzOps reads a byte stream as table operations, returning 0 when it runs
// out.
type fuzzOps struct{ data []byte }

func (o *fuzzOps) next() int {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return int(b)
}

// key maps a byte to one of 256 flows. Its low 16 bits vary with the op
// count: below the tag, they must not matter.
func (o *fuzzOps) key(salt int) uint64 {
	return mix64(uint64(o.next())+1)&tagMask | uint64(salt*0x9e37)&0xffff
}

// FuzzFlowTable drives a Table and the map model through the same stream of
// Assign, AssignHits followed by Assign for the keys it left, BumpEpoch,
// Transfer (moving, keeping and deleting pins), and bursts of new flows, and
// checks after every operation that both give the same ids and outcomes, the
// same Len, the same PartitionSizes — which must also equal a sweep of the
// slab — and the same counters.
func FuzzFlowTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 16, 300, 2000} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			data = data[:8192]
		}
		tb := NewTable(1, 1<<12) // 256 flows never fill 4096 slots' windows
		m := &model{pins: make(map[uint64]modelPin)}
		ops := &fuzzOps{data: data}
		// keep and pick are functions of the key and the op alone, so the
		// table and the model make the same decisions whatever order they
		// consult them in.
		keepOf := func(key uint64, op int) func(int) bool {
			return func(vri int) bool { return (key>>17+uint64(op+vri))%3 == 0 }
		}
		pickOf := func(key uint64, op int) func() int {
			return func() int { return int((key>>20+uint64(op))%6) - 1 }
		}
		for op := 0; len(ops.data) > 0; op++ {
			switch ops.next() % 8 {
			case 0, 1, 2:
				key := ops.key(op)
				keep, pick := keepOf(key, op), pickOf(key, op)
				id, out := tb.Assign(key, 0, keep, pick)
				if wid, wout := m.assign(key, keep, pick); id != wid || out != wout {
					t.Fatalf("op %d: Assign(%#x) = %d,%v, model %d,%v", op, key, id, out, wid, wout)
				}
			case 3, 4:
				var keys [MaxBurst]uint64
				var ids [MaxBurst]int32
				n := 1 + ops.next()%MaxBurst
				for i := range keys[:n] {
					keys[i] = ops.key(op + i)
				}
				hits := tb.AssignHits(keys[:n], ids[:n])
				wantHits, stopped := 0, false
				for i, key := range keys[:n] {
					want := -1
					if !stopped {
						if want = m.hit(key); want < 0 {
							stopped = true
						} else {
							wantHits++
							m.st.Hits++
						}
					}
					if int(ids[i]) != want {
						t.Fatalf("op %d: AssignHits left key %d of %d (%#x) at %d, model %d", op, i, n, key, ids[i], want)
					}
					if want >= 0 {
						continue
					}
					keep, pick := keepOf(key, op), pickOf(key, op)
					id, out := tb.Assign(key, 0, keep, pick)
					if wid, wout := m.assign(key, keep, pick); id != wid || out != wout {
						t.Fatalf("op %d: Assign(%#x) after AssignHits = %d,%v, model %d,%v", op, key, id, out, wid, wout)
					}
				}
				if hits != wantHits {
					t.Fatalf("op %d: AssignHits = %d hits, model %d", op, hits, wantHits)
				}
			case 5:
				tb.BumpEpoch()
				for tag, p := range m.pins {
					m.pins[tag] = modelPin{vri: p.vri, stale: true}
				}
			case 6:
				src, to, salt := ops.next()%5, ops.next()%5, uint64(ops.next())
				dst := func(key uint64) int {
					switch (key>>16 + salt) % 3 {
					case 0:
						return src // keep
					case 1:
						return to // move (or keep, when to == src)
					}
					return -1 // delete
				}
				if got, want := tb.Transfer(src, dst), m.transfer(src, dst); got != want {
					t.Fatalf("op %d: Transfer(%d) changed %d pins, model %d", op, src, got, want)
				}
			case 7:
				// A burst of new flows at once: long runs of pins, which
				// later deletes must shift back.
				vri := ops.next() % 5
				for i := 0; i < 24; i++ {
					key := ops.key(op + i)
					id, out := tb.Assign(key, 0, keepOf(key, op), func() int { return vri })
					if wid, wout := m.assign(key, keepOf(key, op), func() int { return vri }); id != wid || out != wout {
						t.Fatalf("op %d: burst Assign(%#x) = %d,%v, model %d,%v", op, key, id, out, wid, wout)
					}
				}
			}
			if got, want := tb.Len(), len(m.pins); got != want {
				t.Fatalf("op %d: Len = %d, model %d", op, got, want)
			}
			want := make(map[int]int)
			for _, p := range m.pins {
				want[p.vri]++
			}
			got := tb.PartitionSizes()
			for vri, n := range want {
				if got[vri] != n {
					t.Fatalf("op %d: PartitionSizes %v, model %v", op, got, want)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: PartitionSizes %v, model %v", op, got, want)
			}
			samePartitions(t, tb, "fuzz")
			if st := tb.Stats(); st != m.st {
				t.Fatalf("op %d: Stats %+v, model %+v", op, st, m.st)
			}
		}
		for tag, p := range m.pins {
			if vri, ok := tb.PinOf(tag | 0xabcd); !ok || vri != p.vri {
				t.Fatalf("PinOf(%#x) = %d,%v, model %d", tag, vri, ok, p.vri)
			}
		}
	})
}
