package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lvrm/internal/packet"
	"lvrm/internal/vr"
)

// smokeSeconds gives every phase of a run about 100 ms.
const smokeSeconds = 0.3

// TestSmoke runs every workload end to end, untraced and traced, and checks
// what the benchmark promises of a run: no failed frame, an empty pool, a
// clean StopWithin (all three are problems of the run), and exactly the
// metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.flows > 10000 {
			continue // the 100k-flow set-ups are most of the time
		}
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := runOne(w, 1, smokeSeconds, traced, dir, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("failed %d of %d, by class %v, problems %q", res.Failed, res.Offered, res.FailedBy, res.Problems)
				}
				if res.Offered < int64(w.flows) {
					t.Errorf("offered %d frames, fewer than one pass of %d flows", res.Offered, w.flows)
				}
				for _, d := range defsFor(traced) {
					if _, ok := res.Metrics[d.name]; !ok {
						t.Errorf("metric %s not reported", d.name)
					}
				}
				for name := range res.Metrics {
					if !defined(defsFor(traced), name) {
						t.Errorf("metric %s reported but not defined", name)
					}
				}
				var buf bytes.Buffer
				if err := printContractLine(&buf, res); err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
					t.Fatalf("contract line %q: %v", buf.String(), err)
				}
				if len(line.Metrics) != len(defsFor(traced)) || !line.Correct || line.Attempted < 1 {
					t.Errorf("contract line %s", buf.String())
				}
				if traced {
					st, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".jsonl"))
					if err != nil || st.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
					if res.Metrics["pool.outstanding_end"] != 0 {
						t.Errorf("pool.outstanding_end = %v", res.Metrics["pool.outstanding_end"])
					}
				}
			})
		}
	}
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package
// together: same workloads, same metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s %s %s %v", kind, i, g, d.name, d.unit, d.better, d.bound)
			}
			if bounded != (d.bound > 0) || d.bound > 0.25 {
				t.Errorf("%s %s: bound %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if !defined(endToEnd, "setup_s") {
		t.Error("no setup_s metric")
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || len(spec.Command) < 2 || !strings.HasPrefix(spec.Command[1], "benchmark/") {
		t.Errorf("command %q paths %q", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// faultyEngine wraps an engine and damages exactly one frame, the armAt-th.
type faultyEngine struct {
	vr.Engine
	fault string
	n     int
	armed bool
	held  *packet.Frame // swap: the earlier frame of the pair, within one quantum
}

const armAt = 1000

// PinRoutes opens every Step quantum: frames of an earlier quantum are
// already on the out-ring and must not be touched.
func (e *faultyEngine) PinRoutes() uint64 { e.held = nil; return 0 }

func (e *faultyEngine) Process(f *packet.Frame) (time.Duration, error) {
	cost, err := e.Engine.Process(f)
	if e.n++; e.n == armAt {
		e.armed = true
	}
	if !e.armed || err != nil {
		return cost, err
	}
	ip := f.Buf[packet.EthHeaderLen : packet.EthHeaderLen+packet.IPv4HeaderLen]
	switch e.fault {
	case "misroute":
		f.Out = 5
	case "ttl": // undo the decrement, keep the checksum right
		ip[8]++
		ip[10], ip[11] = 0, 0
		binary.BigEndian.PutUint16(ip[10:12], packet.Checksum(ip))
	case "checksum":
		ip[10] ^= 0x40
	case "stamp":
		f.Buf[stampOff+5] ^= 1
	case "drop":
		f.Out = vr.Drop
	case "swap": // exchange this frame with the previous one of the quantum
		if e.held == nil {
			e.held = f
			return cost, err
		}
		e.held.Buf, f.Buf = f.Buf, e.held.Buf
	}
	e.armed = false
	return cost, err
}

// TestVerifierCatchesFaults injects one fault of each class through the
// engine and expects the sink to count exactly that one frame, in that
// class. A verifier that cannot fail proves nothing.
func TestVerifierCatchesFaults(t *testing.T) {
	w := &workload{name: "one-flow", vrs: 1, flows: 1, sizes: []int{packet.MinWireSize}, engine: engineStatic}
	for fault, class := range map[string]int{
		"misroute": failMisrouted, "ttl": failTTL, "checksum": failChecksum,
		"stamp": failStamp, "drop": failLost, "swap": failReordered,
	} {
		t.Run(fault, func(t *testing.T) {
			in, err := w.generate(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			r := &runner{w: w, in: in, seconds: smokeSeconds, log: io.Discard}
			inst, _, _, err := r.setUp(decor{engine: func(inner vr.Factory) vr.Factory {
				return func() (vr.Engine, error) {
					e, err := inner()
					return &faultyEngine{Engine: e, fault: fault}, err
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); inst.load.settled.Load() < 2*armAt; {
				if time.Now().After(deadline) {
					t.Fatal("closed loop made no progress")
				}
				r.warm(inst, 5*time.Millisecond)
			}
			r.tearDown(inst)
			if r.failed != 1 || r.failsBy[class] != 1 {
				t.Errorf("%d frames failed of %d, by class %v; want exactly one %s", r.failed, r.offered, r.failsBy, failNames[class])
			}
			if len(r.problems) != 0 {
				t.Errorf("problems %q", r.problems)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(fwd ...float64) *report {
		rep := newReport(1, 1, false)
		for _, v := range fwd {
			for _, w := range workloads {
				m := map[string]float64{"fwd_mfps": 1, "fwd_serial_mfps": 1, "lat_p50_us": 1, "heap_mb": 1, "setup_s": 1}
				if w.name == "bare-min" {
					m["fwd_mfps"] = v
				}
				rep.Runs = append(rep.Runs, &result{Workload: w.name, Correct: true, Metrics: m})
			}
		}
		return rep
	}
	for _, c := range []struct {
		name    string
		b       *report
		worse   bool
		verdict string
	}{
		{"same", set(1, 1.01, 1.02, 0.99, 1), false, "ok"},
		{"slower", set(0.7, 0.71, 0.7, 0.69, 0.7), true, "worse"},
		{"wide", set(0.5, 1.5, 1, 0.7, 1.3), false, "unresolved"},
	} {
		var out bytes.Buffer
		if got := compare(&out, set(1, 1.01, 1.02, 0.99, 1), c.b); got != c.worse {
			t.Errorf("%s: worse = %t\n%s", c.name, got, out.String())
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "bare-min") && strings.Contains(l, " fwd_mfps ") {
				line = l
			}
		}
		if !strings.HasSuffix(line, c.verdict) {
			t.Errorf("%s: row %q, want verdict %s", c.name, line, c.verdict)
		}
	}
}
