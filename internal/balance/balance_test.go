package balance

import (
	"testing"
	"testing/quick"

	"lvrm/internal/packet"
)

func fixedTargets(loads ...float64) []Target {
	ts := make([]Target, len(loads))
	for i, l := range loads {
		l := l
		ts[i] = Target{ID: i + 100, Load: func() float64 { return l }}
	}
	return ts
}

func udpFrame(t testing.TB, srcPort uint16) *packet.Frame {
	t.Helper()
	f, err := packet.BuildUDP(packet.UDPBuildOpts{
		Src: packet.IPv4(10, 1, 0, 1), Dst: packet.IPv4(10, 2, 0, 1),
		SrcPort: srcPort, DstPort: 9, WireSize: packet.MinWireSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"jsq", "rr", "random"} {
		b, err := NewByName(name, 1)
		if err != nil || b.Name() != name {
			t.Errorf("NewByName(%q) = (%v,%v)", name, b, err)
		}
	}
	if _, err := NewByName("magic", 1); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestJSQPicksLightest(t *testing.T) {
	j := NewJSQ()
	if got := j.Pick(fixedTargets(5, 2, 7), nil); got != 1 {
		t.Errorf("Pick = %d, want 1", got)
	}
	// Tie goes to the first (lowest index), matching Figure 3.3's scan.
	if got := j.Pick(fixedTargets(3, 3, 3), nil); got != 0 {
		t.Errorf("tie Pick = %d, want 0", got)
	}
	if got := j.Pick(fixedTargets(9), nil); got != 0 {
		t.Errorf("single target Pick = %d", got)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	r := NewRoundRobin()
	ts := fixedTargets(0, 0, 0)
	var got []int
	for i := 0; i < 7; i++ {
		got = append(got, r.Pick(ts, nil))
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v", got)
		}
	}
}

func TestRoundRobinShrinkingTargets(t *testing.T) {
	r := NewRoundRobin()
	ts3 := fixedTargets(0, 0, 0)
	r.Pick(ts3, nil)
	r.Pick(ts3, nil) // next = 2
	// VRI set shrinks to 1: must not panic or return out of range.
	ts1 := fixedTargets(0)
	if got := r.Pick(ts1, nil); got != 0 {
		t.Errorf("Pick after shrink = %d", got)
	}
}

func TestRandomUniformish(t *testing.T) {
	r := NewRandom(42)
	ts := fixedTargets(0, 0, 0, 0)
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Pick(ts, nil)]++
	}
	for i, c := range counts {
		if c < n/4-n/40 || c > n/4+n/40 {
			t.Errorf("target %d got %d of %d picks", i, c, n)
		}
	}
}

func TestRandomDeterministicFromSeed(t *testing.T) {
	a, b := NewRandom(7), NewRandom(7)
	ts := fixedTargets(0, 0, 0)
	for i := 0; i < 100; i++ {
		if a.Pick(ts, nil) != b.Pick(ts, nil) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPickInRangeProperty(t *testing.T) {
	f := func(seed uint64, nTargets uint8, rounds uint8) bool {
		n := int(nTargets)%7 + 1
		ts := make([]Target, n)
		for i := range ts {
			ts[i] = Target{ID: i, Load: func() float64 { return 0 }}
		}
		for _, b := range []Balancer{NewJSQ(), NewRoundRobin(), NewRandom(seed)} {
			for r := 0; r < int(rounds); r++ {
				if got := b.Pick(ts, nil); got < 0 || got >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkJSQPick6(b *testing.B) {
	j := NewJSQ()
	ts := fixedTargets(1, 2, 3, 4, 5, 6)
	f := udpFrame(b, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = j.Pick(ts, f)
	}
}
