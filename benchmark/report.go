package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// host says where a report was measured, so that a slow run can be told from
// a slow host.
type host struct {
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"` // per phase
	GoVersion  string         `json:"go_version"`
	StealShare float64        `json:"steal_share"`     // of all CPU time, /proc/stat: median over the runs
	CalMops    float64        `json:"cal_mops_median"` // median load.cal_mops over the runs
}

// report is one set of runs of one commit.
type report struct {
	Schema  string    `json:"schema"`
	Seed    int64     `json:"seed"` // of the first run of each workload; run i uses seed+i
	GitSHA  string    `json:"git_sha"`
	When    string    `json:"when"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Host    host      `json:"host"`
	Runs    []*result `json:"runs"`
}

const reportSchema = "lvrm-benchmark/v1"

func newReport(seed int64, seconds float64, trace bool) *report {
	return &report{
		Schema: reportSchema, Seed: seed, GitSHA: gitSHA(), Seconds: seconds, Trace: trace,
		When: time.Now().UTC().Format(time.RFC3339),
		Host: host{
			CPUModel: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
			GOMAXPROCS: map[string]int{"saturation": procsPar, "serial": procsSerial, "paced": procsPar},
		},
	}
}

// close fills in what the host block says about the runs gathered so far.
func (rep *report) close() {
	var cal, steal []float64
	for _, r := range rep.Runs {
		steal = append(steal, r.Steal)
		if r.CalMops > 0 {
			cal = append(cal, r.CalMops)
		}
	}
	rep.Host.StealShare, rep.Host.CalMops = median(steal), median(cal)
}

func (rep *report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitSHA is the checked-out commit, or "unknown" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes reads the aggregate line of /proc/stat: total and steal jiffies.
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealSince is the hypervisor's share of all CPU time since the reading.
func stealSince(total0, steal0 uint64) float64 {
	total, steal := cpuTimes()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// values gathers one metric of one workload over a report's correct runs.
func (rep *report) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range rep.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Correct {
			xs = append(xs, v)
		}
	}
	return xs
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// compare prints, per workload and end-to-end metric, both medians, the
// relative change from a to b, the bound and a verdict: "worse" when b's
// median is worse than a's by more than the bound, "unresolved" when either
// side's own spread is wider than the bound, "ok" otherwise. It reports
// whether any row is worse.
func compare(w io.Writer, a, b *report) (worse bool) {
	fmt.Fprintf(w, "A: %s seed %d, %d runs, steal %.1f%%, cal %.0f Mops\n", a.GitSHA, a.Seed, len(a.Runs), 100*a.Host.StealShare, a.Host.CalMops)
	fmt.Fprintf(w, "B: %s seed %d, %d runs, steal %.1f%%, cal %.0f Mops\n", b.GitSHA, b.Seed, len(b.Runs), 100*b.Host.StealShare, b.Host.CalMops)
	fmt.Fprintf(w, "%-11s %-16s %5s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "change", "sprd A", "sprd B", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := a.values(wl.name, m.name), b.values(wl.name, m.name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-11s %-16s %5s %12s %12s %8s %7s %7s %5.0f%%  %s\n", wl.name, m.name, m.unit, "-", "-", "-", "-", "-", 100*m.bound, "missing")
				worse = true
				continue
			}
			ma, mb := median(xa), median(xb)
			change := mb/ma - 1
			loss := change // how much worse b is, as a share of a
			if m.better == "higher" {
				loss = -change
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "ok"
			switch {
			case loss > m.bound:
				verdict, worse = "worse", true
			case sa > m.bound || sb > m.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-11s %-16s %5s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.name, m.name, m.unit, ma, mb, 100*change, 100*sa, 100*sb, 100*m.bound, verdict)
		}
	}
	return worse
}
