package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// quick is the configuration every shape test runs at.
var quick = Config{Seed: 1}

// cell parses the numeric cell at (row, col).
func cell(t *testing.T, res *Result, row, col int) float64 {
	t.Helper()
	if row >= len(res.Rows) || col >= len(res.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d); rows=%d", res.ID, row, col, len(res.Rows))
	}
	v, err := strconv.ParseFloat(res.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q: %v", res.ID, row, col, res.Rows[row][col], err)
	}
	return v
}

// colIndex finds a column by name.
func colIndex(t *testing.T, res *Result, name string) int {
	t.Helper()
	for i, c := range res.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("%s: no column %q in %v", res.ID, name, res.Columns)
	return -1
}

// run returns experiment id's result at quick, simulating it on the first
// call only.
func run(t *testing.T, id string) *Result {
	t.Helper()
	if res, ok := results[id]; ok {
		return res
	}
	res, err := Run(id, quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Table())
	results[id] = res
	return res
}

// results holds every result run has returned, by experiment ID, so that
// TestFiguresMatchManifest hashes what the shape tests checked instead of
// simulating each experiment a second time. The tests of this package do not
// run in parallel, so it needs no lock.
var results = map[string]*Result{}

// slow skips a shape test that takes seconds of virtual-time simulation when
// the run asked for the short tier (go test -short ./...: the inner loop; CI
// and tier-1 run everything).
func slow(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow shape test: run without -short")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"1a", "1a-cpu", "1b", "1c", "1d", "1e",
		"2a", "2b", "2c", "2c-lat", "2d", "2e",
		"3a", "3b", "3c", "3c-jain", "3c-mm",
		"4", "4-jain", "4-mm", "4-time",
		"a1", "a2",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, s.ID, want[i])
		}
		if s.Figure == "" || s.Title == "" {
			t.Errorf("%s: missing figure/title", s.ID)
		}
	}
	if _, err := Run("nope", quick); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestExp1aShape: native ≈ LVRM/PF_RING at all sizes; raw socket ~50% lower
// at 84 B; Click lowest of the LVRM variants; QEMU-KVM worst overall.
func TestExp1aShape(t *testing.T) {
	slow(t)
	res := run(t, "1a")
	native := colIndex(t, res, "native-linux (Kfps)")
	raw := colIndex(t, res, "lvrm-c++-rawsocket (Kfps)")
	pfring := colIndex(t, res, "lvrm-c++-pfring (Kfps)")
	click := colIndex(t, res, "lvrm-click-pfring (Kfps)")
	vmware := colIndex(t, res, "vmware-server (Kfps)")
	qemu := colIndex(t, res, "qemu-kvm (Kfps)")
	for i := range res.Rows {
		n, p, r := cell(t, res, i, native), cell(t, res, i, pfring), cell(t, res, i, raw)
		if p < 0.9*n {
			t.Errorf("row %d: pfring %.0f not within 10%% of native %.0f", i, p, n)
		}
		if r > p {
			t.Errorf("row %d: rawsocket %.0f above pfring %.0f", i, r, p)
		}
		if q := cell(t, res, i, qemu); q >= cell(t, res, i, vmware) {
			t.Errorf("row %d: qemu %.0f not below vmware", i, q)
		}
		if c := cell(t, res, i, click); c > p {
			t.Errorf("row %d: click %.0f above pfring c++ %.0f", i, c, p)
		}
	}
	// The headline 84 B numbers: native at the 448 Kfps sender cap, raw
	// socket ~50% lower.
	if n := cell(t, res, 0, native); n < 440 {
		t.Errorf("84B native = %.0f Kfps, want ~448", n)
	}
	if r := cell(t, res, 0, raw); r < 180 || r > 280 {
		t.Errorf("84B rawsocket = %.0f Kfps, want ~224 (50%% of native)", r)
	}
}

// TestExp1aCPUShape: native is softirq-only; rawsocket has the highest
// system share; pfring's user time is below rawsocket's.
func TestExp1aCPUShape(t *testing.T) {
	res := run(t, "1a-cpu")
	us, sy, si := colIndex(t, res, "us %"), colIndex(t, res, "sy %"), colIndex(t, res, "si %")
	byMech := map[string][3]float64{}
	for i, row := range res.Rows {
		byMech[row[0]] = [3]float64{cell(t, res, i, us), cell(t, res, i, sy), cell(t, res, i, si)}
	}
	nat := byMech["native-linux"]
	if nat[0] != 0 || nat[2] <= nat[1] {
		t.Errorf("native split us/sy/si = %v, want softirq-dominated, no user", nat)
	}
	raw, pf := byMech["lvrm-c++-rawsocket"], byMech["lvrm-c++-pfring"]
	if raw[1] <= pf[1] {
		t.Errorf("rawsocket system %.1f%% not above pfring %.1f%%", raw[1], pf[1])
	}
	if pf[0] >= raw[0] {
		t.Errorf("pfring user %.1f%% not below rawsocket %.1f%%", pf[0], raw[0])
	}
	for mech, v := range byMech {
		if tot := v[0] + v[1] + v[2]; tot > 101 {
			t.Errorf("%s: total CPU %.1f%% exceeds one core", mech, tot)
		}
	}
}

// TestExp1bShape: all LVRM variants within ~2x of native RTT; hypervisors
// several times higher, QEMU worst.
func TestExp1bShape(t *testing.T) {
	res := run(t, "1b")
	rtt := colIndex(t, res, "mean RTT (µs)")
	byMech := map[string]float64{}
	for i, row := range res.Rows {
		byMech[row[0]] = cell(t, res, i, rtt)
	}
	native := byMech["native-linux"]
	if native < 50 || native > 150 {
		t.Errorf("native RTT = %.1f µs, want the paper's 70-120 band", native)
	}
	for _, m := range []string{"lvrm-c++-rawsocket", "lvrm-c++-pfring", "lvrm-click-pfring"} {
		if byMech[m] > 2*native {
			t.Errorf("%s RTT %.1f not in native's band (%.1f)", m, byMech[m], native)
		}
	}
	if byMech["vmware-server"] < 2*native {
		t.Errorf("vmware RTT %.1f not remarkably higher than native %.1f", byMech["vmware-server"], native)
	}
	if byMech["qemu-kvm"] < byMech["vmware-server"] {
		t.Errorf("qemu RTT %.1f below vmware %.1f", byMech["qemu-kvm"], byMech["vmware-server"])
	}
}

// TestExp1cShape: C++ VR ≈ 3.7 Mfps at 84 B and ≈ 11 Gbps at 1538 B; Click
// VR far below; C++ rate decreases with frame size.
func TestExp1cShape(t *testing.T) {
	slow(t)
	res := run(t, "1c")
	cpp := colIndex(t, res, "c++-vr (Kfps)")
	gbps := colIndex(t, res, "c++-vr (Gbps)")
	click := colIndex(t, res, "click-vr (Kfps)")
	if v := cell(t, res, 0, cpp); v < 3000 || v > 4500 {
		t.Errorf("84B c++ = %.0f Kfps, want ~3700", v)
	}
	last := len(res.Rows) - 1
	if v := cell(t, res, last, gbps); v < 9 || v > 13 {
		t.Errorf("1538B c++ = %.2f Gbps, want ~11", v)
	}
	for i := range res.Rows {
		if c := cell(t, res, i, click); c > cell(t, res, i, cpp)/5 {
			t.Errorf("row %d: click %.0f not far below c++", i, c)
		}
		if i > 0 && cell(t, res, i, cpp) >= cell(t, res, i-1, cpp) {
			t.Errorf("row %d: c++ rate not decreasing with frame size", i)
		}
	}
}

// TestExp1dShape: C++ ≤ 15 µs, Click within 25-35 µs.
func TestExp1dShape(t *testing.T) {
	res := run(t, "1d")
	cpp, click := colIndex(t, res, "c++-vr (µs)"), colIndex(t, res, "click-vr (µs)")
	for i := range res.Rows {
		if v := cell(t, res, i, cpp); v > 15 {
			t.Errorf("row %d: c++ latency %.1f µs above the paper's 15", i, v)
		}
		if v := cell(t, res, i, click); v < 20 || v > 40 {
			t.Errorf("row %d: click latency %.1f µs outside the paper's 25-35 band", i, v)
		}
	}
}

// TestExp1eShape: no-load 5-7 µs; full load above no-load at every size.
func TestExp1eShape(t *testing.T) {
	res := run(t, "1e")
	noLoad, fullLoad := colIndex(t, res, "no-load (µs)"), colIndex(t, res, "full-load (µs)")
	for i := range res.Rows {
		nl, fl := cell(t, res, i, noLoad), cell(t, res, i, fullLoad)
		if nl < 4 || nl > 9 {
			t.Errorf("row %d: no-load %.1f µs outside the 5-7 band", i, nl)
		}
		if fl <= nl {
			t.Errorf("row %d: full-load %.1f not above no-load %.1f", i, fl, nl)
		}
	}
}

// TestExp2aShape: sibling ≥ non-sibling > default > same for the C++ VR;
// Click's variants converge.
func TestExp2aShape(t *testing.T) {
	slow(t)
	res := run(t, "2a")
	cpp := colIndex(t, res, "c++-vr (Kfps)")
	click := colIndex(t, res, "click-vr (Kfps)")
	byMode := map[string]float64{}
	clickByMode := map[string]float64{}
	for i, row := range res.Rows {
		byMode[row[0]] = cell(t, res, i, cpp)
		clickByMode[row[0]] = cell(t, res, i, click)
	}
	if !(byMode["sibling"] >= byMode["non-sibling"] &&
		byMode["non-sibling"] > byMode["default"] &&
		byMode["default"] > byMode["same"]) {
		t.Errorf("c++ affinity ordering violated: %v", byMode)
	}
	// Click: sibling and non-sibling similar (its own processing is the
	// bottleneck), same still clearly worst... actually Click is so slow
	// that even the same-core contention barely shows; just require the
	// spread to be much smaller than the C++ VR's.
	cppSpread := byMode["sibling"] - byMode["same"]
	clickSpread := clickByMode["sibling"] - clickByMode["same"]
	if clickSpread > cppSpread/2 {
		t.Errorf("click spread %.0f not well below c++ spread %.0f", clickSpread, cppSpread)
	}
}

// TestExp2bShape: throughput ≈ ideal 60c staircase for c ≤ 6, flat at the
// offered rate after, and the over-subscribed 8th core must not help.
func TestExp2bShape(t *testing.T) {
	slow(t)
	res := run(t, "2b")
	ideal, cpp := colIndex(t, res, "ideal (Kfps)"), colIndex(t, res, "c++-vr (Kfps)")
	click := colIndex(t, res, "click-vr (Kfps)")
	for i := range res.Rows {
		id, got := cell(t, res, i, ideal), cell(t, res, i, cpp)
		if got < 0.85*id || got > 1.1*id {
			t.Errorf("row %d: c++ %.1f vs ideal %.1f", i, got, id)
		}
		if ck := cell(t, res, i, click); ck > got {
			t.Errorf("row %d: click %.1f above c++ %.1f", i, ck, got)
		}
	}
	if c8, c7 := cell(t, res, 7, cpp), cell(t, res, 6, cpp); c8 > c7*1.02 {
		t.Errorf("8 cores (%.1f) outperformed 7 (%.1f) despite contention", c8, c7)
	}
}

// TestExp2cShape: the allocation reaches 6 cores at peak and returns to 1.
func TestExp2cShape(t *testing.T) {
	slow(t)
	res := run(t, "2c")
	coresCol := colIndex(t, res, "cores")
	maxCores, last := 0.0, 0.0
	for i := range res.Rows {
		v := cell(t, res, i, coresCol)
		if v > maxCores {
			maxCores = v
		}
		last = v
	}
	if maxCores != 6 {
		t.Errorf("peak allocation = %.0f cores, want 6", maxCores)
	}
	if last > 2 {
		t.Errorf("final allocation = %.0f cores, want the staircase to descend", last)
	}
	for _, n := range res.Notes {
		if len(n) > 7 && n[:7] == "WARNING" {
			t.Errorf("experiment flagged: %s", n)
		}
	}
}

// TestExp2cLatShape: allocations ≤ 900 µs, deallocations ≤ 700 µs, and
// allocations cost more than deallocations.
func TestExp2cLatShape(t *testing.T) {
	slow(t)
	res := run(t, "2c-lat")
	kind := colIndex(t, res, "event")
	lat := colIndex(t, res, "latency (µs)")
	var minAlloc, maxDealloc float64 = 1e9, 0
	nAlloc, nDealloc := 0, 0
	for i, row := range res.Rows {
		v := cell(t, res, i, lat)
		switch row[kind] {
		case "alloc":
			nAlloc++
			if v > 900 {
				t.Errorf("allocation latency %.0f µs above 900", v)
			}
			if v < minAlloc {
				minAlloc = v
			}
		case "dealloc":
			nDealloc++
			if v > 700 {
				t.Errorf("deallocation latency %.0f µs above 700", v)
			}
			if v > maxDealloc {
				maxDealloc = v
			}
		}
	}
	if nAlloc < 5 || nDealloc < 4 {
		t.Errorf("events = %d allocs / %d deallocs, want the full staircase", nAlloc, nDealloc)
	}
	if minAlloc <= maxDealloc {
		t.Errorf("cheapest alloc %.0f µs not above costliest dealloc %.0f µs", minAlloc, maxDealloc)
	}
}

// TestExp2dShape: both VRs reach 3 cores, at different times.
func TestExp2dShape(t *testing.T) {
	slow(t)
	res := run(t, "2d")
	c1, c2 := colIndex(t, res, "vr1 cores"), colIndex(t, res, "vr2 cores")
	max1, max2 := 0.0, 0.0
	firstPeak1, firstPeak2 := -1, -1
	for i := range res.Rows {
		v1, v2 := cell(t, res, i, c1), cell(t, res, i, c2)
		if v1 > max1 {
			max1 = v1
		}
		if v2 > max2 {
			max2 = v2
		}
		if v1 == 3 && firstPeak1 < 0 {
			firstPeak1 = i
		}
		if v2 == 3 && firstPeak2 < 0 {
			firstPeak2 = i
		}
	}
	if max1 != 3 || max2 != 3 {
		t.Errorf("peaks = %.0f/%.0f, want 3 each", max1, max2)
	}
	if firstPeak1 < 0 || firstPeak2 < 0 || firstPeak1 >= firstPeak2 {
		t.Errorf("staggered peaks out of order: vr1@%d vr2@%d", firstPeak1, firstPeak2)
	}
}

// TestExp2eShape: the slower VR ends with more cores, roughly in the 2:1
// service-time ratio.
func TestExp2eShape(t *testing.T) {
	slow(t)
	res := run(t, "2e")
	c1 := colIndex(t, res, "vr1 cores (slow, 1x)")
	c2 := colIndex(t, res, "vr2 cores (fast, 2x)")
	last := len(res.Rows) - 1
	v1, v2 := cell(t, res, last, c1), cell(t, res, last, c2)
	if v1 <= v2 {
		t.Errorf("slow VR ended with %.0f cores vs fast VR's %.0f, want more", v1, v2)
	}
	if ratio := v1 / v2; ratio < 1.3 || ratio > 2.7 {
		t.Errorf("core ratio %.2f far from the 2:1 service-time ratio", ratio)
	}
}

// TestExp3aShape: every scheme close to the ideal; JSQ ≥ random; Click below
// C++.
func TestExp3aShape(t *testing.T) {
	res := run(t, "3a")
	maxCol := colIndex(t, res, "max (Kfps)")
	cpp := colIndex(t, res, "c++-vr (Kfps)")
	click := colIndex(t, res, "click-vr (Kfps)")
	byScheme := map[string]float64{}
	for i, row := range res.Rows {
		byScheme[row[0]] = cell(t, res, i, cpp)
		if got, ideal := cell(t, res, i, cpp), cell(t, res, i, maxCol); got < 0.85*ideal {
			t.Errorf("%s: c++ %.1f below 85%% of ideal %.0f", row[0], got, ideal)
		}
		if ck := cell(t, res, i, click); ck > cell(t, res, i, cpp) {
			t.Errorf("%s: click above c++", row[0])
		}
	}
	if byScheme["jsq"] < byScheme["random"] {
		t.Errorf("jsq %.1f below random %.1f", byScheme["jsq"], byScheme["random"])
	}
}

// TestExp3bShape: T = 2·min(T1,T2) close to the ideal for every scheme.
func TestExp3bShape(t *testing.T) {
	res := run(t, "3b")
	maxCol := colIndex(t, res, "max (Kfps)")
	cpp := colIndex(t, res, "c++-vr T (Kfps)")
	for i, row := range res.Rows {
		if got, ideal := cell(t, res, i, cpp), cell(t, res, i, maxCol); got < 0.9*ideal {
			t.Errorf("%s: T %.1f below 90%% of ideal %.0f", row[0], got, ideal)
		}
	}
}

// TestExp3cShape: every mechanism lands in the high-Mbps band just below
// line rate; Jain above 0.6 for all (the paper's long runs reach 0.9+).
func TestExp3cShape(t *testing.T) {
	slow(t)
	agg := run(t, "3c")
	aggCol := colIndex(t, agg, "aggregate goodput (Mbps)")
	for i, row := range agg.Rows {
		v := cell(t, agg, i, aggCol)
		if v < 700 || v > 1000 {
			t.Errorf("%s: aggregate %.0f Mbps outside the just-below-1Gbps band", row[0], v)
		}
	}
	jain := run(t, "3c-jain")
	jainCol := colIndex(t, jain, "Jain's fairness index")
	for i, row := range jain.Rows {
		if v := cell(t, jain, i, jainCol); v < 0.6 {
			t.Errorf("%s: Jain %.3f below 0.6", row[0], v)
		}
	}
	mm := run(t, "3c-mm")
	mmCol := colIndex(t, mm, "max-min fairness")
	for i, row := range mm.Rows {
		if v := cell(t, mm, i, mmCol); v < 0.05 {
			t.Errorf("%s: max-min %.3f indicates starvation", row[0], v)
		}
	}
}

// TestExp4Shape: aggregates just below 1 Gbps at every flow count; the time
// series plateaus.
func TestExp4Shape(t *testing.T) {
	slow(t)
	res := run(t, "4")
	for i := range res.Rows {
		for c := 1; c < len(res.Columns); c++ {
			v := cell(t, res, i, c)
			// A single flow may sit below the link rate (window-limited);
			// multi-flow rows must fill most of the pipe.
			low := 650.0
			if i == 0 {
				low = 400
			}
			if v < low || v > 1000 {
				t.Errorf("row %d col %d: %.0f Mbps implausible", i, c, v)
			}
		}
	}
	// The aggregate stays roughly flat with flow count (more flows pay a
	// little more congestion overhead but still fill the pipe).
	first, last := cell(t, res, 0, 1), cell(t, res, len(res.Rows)-1, 1)
	if last < 0.85*first {
		t.Errorf("aggregate at max flows (%.0f) far below single flow (%.0f)", last, first)
	}

	ts := run(t, "4-time")
	n := len(ts.Rows)
	// Second-half samples should plateau near line rate.
	for i := n / 2; i < n; i++ {
		for c := 1; c < len(ts.Columns); c++ {
			if v := cell(t, ts, i, c); v < 600 {
				t.Errorf("time series row %d col %d: %.0f Mbps below plateau", i, c, v)
			}
		}
	}

	_ = run(t, "4-mm")
	jain := run(t, "4-jain")
	for i := range jain.Rows {
		for c := 1; c < len(jain.Columns); c++ {
			if v := cell(t, jain, i, c); v < 0.55 {
				t.Errorf("4-jain row %d col %d: %.4f below 0.55", i, c, v)
			}
		}
	}
}

// TestAblationSocketShape: pfring-v1.0 (receive-only upgrade) lands between
// the raw socket and full PF_RING at small frames; all converge at 1538 B.
func TestAblationSocketShape(t *testing.T) {
	slow(t)
	res := run(t, "a1")
	raw := colIndex(t, res, "rawsocket (Kfps)")
	v10 := colIndex(t, res, "pfring-v1.0 (Kfps)")
	v11 := colIndex(t, res, "pfring-v1.1 (Kfps)")
	r0, m0, p0 := cell(t, res, 0, raw), cell(t, res, 0, v10), cell(t, res, 0, v11)
	if !(r0 < m0 && m0 < p0) {
		t.Errorf("84B ordering violated: raw %.0f, v1.0 %.0f, v1.1 %.0f", r0, m0, p0)
	}
	last := len(res.Rows) - 1
	if a, b := cell(t, res, last, raw), cell(t, res, last, v11); a != b {
		t.Errorf("1538B: raw %.0f != pfring %.0f (both should be line-limited)", a, b)
	}
}

// TestAblationEstimateShape: the refreshed-on-read discipline recovers all
// capacity after a burst; the literal update-on-dispatch rule delivers less.
func TestAblationEstimateShape(t *testing.T) {
	slow(t)
	res := run(t, "a2")
	col := colIndex(t, res, "delivered (Kfps)")
	fresh, stale := cell(t, res, 0, col), cell(t, res, 1, col)
	if fresh <= stale*1.5 {
		t.Errorf("refreshed %.0f not well above stale %.0f", fresh, stale)
	}
}

func TestResultTableRendering(t *testing.T) {
	res := &Result{ID: "x", Figure: "Fig. 0", Title: "demo",
		Columns: []string{"a", "b"}, Notes: []string{"note"}}
	res.AddRow("1", "2")
	tbl := res.Table()
	for _, want := range []string{"| a | b |", "| 1 | 2 |", "> note"} {
		if !containsStr(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWriteCSV(t *testing.T) {
	res := &Result{ID: "3c-jain", Columns: []string{"a", "b"}}
	res.AddRow("1", "x,y") // embedded comma must be quoted
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,\"x,y\"\n" {
		t.Errorf("CSV = %q", sb.String())
	}
	if res.FileStem() != "exp3c-jain" {
		t.Errorf("FileStem = %q", res.FileStem())
	}
}

// TestDeterministicReplay: the same experiment with the same seed yields
// byte-identical tables.
func TestDeterministicReplay(t *testing.T) {
	id := "2c"
	if testing.Short() {
		id = "3b" // also seeded (random balancing), a tenth of the time
	}
	a, err := Run(id, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(id, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Error("same seed produced different tables")
	}
	if testing.Short() {
		return
	}
	c, err := Run("2a", Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run("2a", Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds may legitimately coincide for deterministic
	// experiments, but the OS-default placement row is stochastic.
	_ = c
	_ = d
}

// TestFiguresMatchManifest: every experiment's CSV at Config{Seed: 1}, as
// `lvrmbench -run all -seed 1 -csv` writes it, hashes to its line in
// bench/figures.sha256, and the manifest names no other file. The results
// the shape tests above ran are reused; only the experiments none of them ran
// are simulated here.
func TestFiguresMatchManifest(t *testing.T) {
	slow(t)
	manifest, err := os.ReadFile("../../bench/figures.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(manifest)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("manifest line %q is not \"<sha256>  <file>\"", line)
		}
		want[name] = sum
	}
	for _, s := range All() {
		res := run(t, s.ID)
		var csv bytes.Buffer
		if err := res.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		name := res.FileStem() + ".csv"
		sum, ok := want[name]
		switch got := fmt.Sprintf("%x", sha256.Sum256(csv.Bytes())); {
		case !ok:
			t.Errorf("%s: not in the manifest", name)
		case got != sum:
			t.Errorf("%s: sha256 %s, manifest %s", name, got, sum)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: in the manifest, but no experiment writes it", name)
	}
}
