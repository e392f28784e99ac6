// Command benchmark is the wall-clock benchmark of the live data path: it
// drives core.Runtime, configured as cmd/lvrmd ships it, with seeded traffic
// from its own netio.Adapter, verifies every delivered frame, and reports
// forwarding rate, latency, heap and set-up time per workload. See README.md
// for the workloads, the metrics and how to read the output.
//
//	go run ./benchmark                          every workload once, report in benchmark/out/
//	go run ./benchmark -runs 10                 ten seeds per workload: medians and spreads
//	go run ./benchmark -trace 1                 the traced run: per-layer metrics and span files
//	go run ./benchmark -workload bare-min -seed 7 -seconds 24 -trace 0
//	go run ./benchmark -compare A.json B.json   exit status 1 if B is worse than A
//
// With -workload and one run, the last line of standard output is one JSON
// object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run only this workload (default: all four)")
		seed     = fs.Int64("seed", 1, "workload seed; run i of a workload uses seed+i")
		seconds  = fs.Float64("seconds", 24, "how long one run measures")
		trace    = fs.Int("trace", 0, "1 = the traced run: decorators on, inline pass and replays; prints the per-layer metrics and writes a span file per workload")
		runs     = fs.Int("runs", 1, "runs per workload")
		outDir   = fs.String("out", "benchmark/out", "directory for reports and span files")
		repPath  = fs.String("report", "", "write the report here, after the runs it already holds (default: a new <out>/report-<time>.json)")
		doCmp    = fs.Bool("compare", false, "compare two reports: -compare A.json B.json")
		describe = fs.Bool("metrics", false, "list every metric with its unit, source and the end-to-end metric it should move")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *describe:
		describeMetrics(stdout)
		return 0
	case *doCmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if compare(stdout, a, b) {
			return 1
		}
		return 0
	}
	todo := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	if *seconds <= 0 || *runs < 1 || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	rep := newReport(*seed, *seconds, *trace != 0)
	for _, w := range todo {
		for i := 0; i < *runs; i++ {
			t0, s0 := cpuTimes()
			res, err := runOne(w, *seed+int64(i), *seconds, *trace != 0, *outDir, stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			res.Steal = stealSince(t0, s0)
			printResult(stdout, res)
			rep.Runs = append(rep.Runs, res)
		}
	}
	if prev, err := readReport(*repPath); err == nil {
		rep.Runs = append(prev.Runs, rep.Runs...) // one set, gathered a process at a time
	}
	rep.close()
	if *runs > 1 {
		summarize(stdout, rep)
	}
	path := *repPath
	if path == "" {
		path = filepath.Join(*outDir, "report-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	}
	if err := rep.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report: %s (git %s, steal %.1f%%, cal %.0f Mops)\n", path, rep.GitSHA, 100*rep.Host.StealShare, rep.Host.CalMops)
	if len(rep.Runs) == 1 {
		if err := printContractLine(stdout, rep.Runs[0]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

// runOne generates the workload's inputs from the seed and runs it once.
func runOne(w *workload, seed int64, seconds float64, traced bool, outDir string, log io.Writer) (*result, error) {
	r := &runner{w: w, seed: seed, seconds: seconds, log: log}
	// Three instances churn in a traced run, one in an untraced one; the
	// trace must outlast the longest of them.
	in, err := w.generate(seed, time.Duration((2*seconds+30)*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	r.in = in
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %t: %s\n", w.name, seed, seconds, traced, w.why)
	if !traced {
		return r.runUntraced()
	}
	r.spans = newSpanLog()
	r.probes = newProbes(r.spans)
	return r.runTraced(outDir)
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printResult(w io.Writer, res *result) {
	for _, d := range defsFor(res.Trace) {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", d.name, res.Metrics[d.name], d.unit)
		if xs := res.Detail[d.name]; len(xs) > 1 {
			q1, _, q3 := quartiles(xs)
			fmt.Fprintf(w, " quartiles %.6g..%.6g of %d", q1, q3, len(xs))
		}
		if res.Trace {
			fmt.Fprintf(w, " [%s]", d.how)
		}
		fmt.Fprintln(w)
	}
	if t := res.Detail["lat_tail_us"]; len(t) == 3 {
		fmt.Fprintf(w, "  %-28s p99 %.1f us, p99.9 %.1f us of %.0f samples (diagnostic, not gated)\n", "latency tail", t[0], t[1], t[2])
	}
	fmt.Fprintf(w, "  frames_offered %d frames_failed %d cal %.0f Mops steal %.1f%% correct %t\n",
		res.Offered, res.Failed, res.CalMops, 100*res.Steal, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", res.SpanFile)
	}
}

// summarize prints the median and spread of each metric over a set of runs.
func summarize(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%-11s %-28s %6s %12s %12s %12s %7s %6s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range defsFor(rep.Trace) {
			xs := rep.values(wl.name, d.name)
			if len(xs) < 2 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-11s %-28s %6s %12.5g %12.5g %12.5g %6.1f%%", wl.name, d.name, d.unit, q1, med, q3, 100*spread(xs))
			if d.bound > 0 {
				fmt.Fprintf(w, " %5.0f%%", 100*d.bound)
			}
			fmt.Fprintln(w)
		}
	}
}

// printContractLine prints the one-line JSON result a harness reads.
func printContractLine(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: max(res.Offered, 1), Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range defsFor(res.Trace) {
		v := res.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func describeMetrics(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %-11s %s\n", wl.name, wl.why)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "end-to-end %-16s %-5s better %-6s bound %2.0f%%  %s\n", d.name, d.unit, d.better, 100*d.bound, d.how)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "layer %-7s %-28s %-6s %s; moves: %s\n", layerOf(d.name), d.name, d.unit, d.how, d.moves)
	}
}

// layerOf is the module a per-layer metric belongs to: the name's prefix.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
