package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/route"
	"lvrm/internal/vr"
)

// quantumTranscript drives one VRI through a seeded mix of control events,
// dispatched frames (routable and not, several sizes), staged transplant
// residue, clock advances and relays, running a quantum of one per "step"
// action, and writes down everything it decides: each call's (cost, did),
// the order frames leave the out-ring, the service-rate estimate and what
// the VRI still owes. The 6-slot data rings make out-ring rejects happen.
func quantumTranscript(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clock := &fakeClock{}
	qa := netio.NewQueueAdapter(netio.PFRing, 1024)
	l, err := New(Config{Adapter: qa, Clock: clock.fn(), DataQueueCap: 6, ControlQueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := route.LoadMapFile(strings.NewReader("10.2.0.0/16 if1\n"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := l.AddVR(VRConfig{
		Name: "vr1", SrcPrefix: packet.MustParseIP("10.1.0.0"), SrcBits: 16,
		Engine: vr.BasicFactory(vr.BasicConfig{Routes: tbl, PerByteCost: 0.25}),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := v.VRIs()[0]

	nextID := 0
	frame := func() *packet.Frame {
		nextID++
		dst := "10.2.0.1"
		if rng.Intn(5) == 0 {
			dst = "10.9.0.1" // no route: the engine drops it
		}
		f, err := packet.BuildUDP(packet.UDPBuildOpts{
			Src: packet.MustParseIP("10.1.0.5"), Dst: packet.MustParseIP(dst),
			SrcPort: uint16(nextID), DstPort: 9, WireSize: packet.MinWireSize + 100*rng.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	var b strings.Builder
	controls := 0
	onControl := func(*ControlEvent) { controls++ }
	relay := func(max int) {
		l.RelayFrom(a, max)
		for {
			f, ok := qa.Harvest()
			if !ok {
				return
			}
			fmt.Fprintf(&b, "out%d ", int(f.Buf[34])<<8|int(f.Buf[35]))
		}
	}
	for i := 0; i < 160; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
			res := a.StepBatch(clock.now, 1, onControl)
			switch {
			case !res.Did():
				b.WriteString(". ")
			case res.Control == 1:
				b.WriteString("c ")
			default:
				fmt.Fprintf(&b, "%d ", res.Cost.Nanoseconds())
			}
		case r < 6:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if f := frame(); !a.hand(f) {
					f.Release()
				}
			}
		case r == 6:
			a.Control.In.Enqueue(&ControlEvent{DstVR: v.ID, DstVRI: a.ID})
		case r == 7:
			// What a migration does to its destination: staged, then counted.
			a.stagePre(frame())
			a.handed.Add(1)
		case r == 8:
			relay(1 + rng.Intn(3))
		default:
			clock.advance(time.Duration(1+rng.Intn(40)) * time.Microsecond)
		}
	}
	relay(100)
	fmt.Fprintf(&b, "| svc=%.1f valid=%v owes=%d ctl=%d processed=%d engdrops=%d outdrops=%d",
		a.SvcEst.Estimate(), a.SvcEst.Valid(), a.handed.Load()-a.settled.Load(),
		controls, a.Processed(), a.EngineDrops(), a.OutDrops())
	return b.String()
}

// TestQuantumOfOneIsTheSeedStep pins StepBatch(now, 1, …) to the per-frame
// Step it replaced: the transcripts below were recorded from Step at the
// commit before it was deleted, over the same seeded sequences.
func TestQuantumOfOneIsTheSeedStep(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, ". 150 out1 . c 100 75 c c out2 out7 c c c c 100 100 100 125 out10 out12 c 150 150 75 150 150 c 100 150 150 c out18 150 125 c 100 125 out3 out4 150 out5 75 75 150 out6 out8 125 150 150 125 125 100 out9 out11 100 75 75 out23 out27 c 150 75 125 125 75 75 100 150 125 . . 150 125 75 75 100 100 out28 out29 out32 out33 c out36 c c out38 125 75 75 100 out40 out41 out58 out62 out53 out55 | svc=29069.5 valid=true owes=6 ctl=15 processed=51 engdrops=10 outdrops=14"},
		{2, "c c c c 150 75 75 c c c c c c 100 150 150 75 150 out15 out2 out20 c c c out4 out6 75 75 100 150 125 150 100 125 100 out39 out48 out49 150 150 75 100 125 125 100 c 75 150 100 out8 out16 75 out17 out32 75 100 out34 75 150 100 c 75 75 out58 out60 out61 out79 out82 c c c c c 75 125 100 150 75 out84 out85 out62 out89 out69 out70 out71 out72 | svc=61302.8 valid=true owes=5 ctl=20 processed=40 engdrops=9 outdrops=5"},
		{3, "c c 75 150 100 75 c c c c out1 out2 125 out3 c 75 75 125 c 100 75 125 150 out16 out21 out24 out26 125 125 out4 125 125 75 c out5 out6 100 c 150 125 100 100 125 out10 out11 125 125 out12 out13 c 75 . 75 . 75 c 100 150 125 150 out33 75 125 150 100 out38 out47 out48 c 75 c out50 out51 out52 out53 150 100 c out60 out63 out67 100 75 75 125 out68 out72 out73 out74 out64 | svc=39749.4 valid=true owes=6 ctl=15 processed=43 engdrops=7 outdrops=6"},
	} {
		if got := quantumTranscript(t, c.seed); got != c.want {
			t.Errorf("seed %d:\n got %s\nwant %s", c.seed, got, c.want)
		}
	}
}
