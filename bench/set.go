package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// setReport is what one `go run ./bench` writes under bench/out and what
// -compare reads: every pass of every set.
type setReport struct {
	Host    hostInfo     `json:"host"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    int          `json:"runs"`
	Passes  []passReport `json:"passes"`
	// TraceOverheadPct is, per workload and set, how much slower the traced
	// pass's timed section ran than the untraced one (work_per_s).
	TraceOverheadPct map[string][]float64 `json:"trace_overhead_pct,omitempty"`
	Checks           []check              `json:"checks"` // cross-pass checks
}

// values collects one metric of one workload over the passes of one kind.
func (s *setReport) values(workload, metric string, traced, layer bool) []float64 {
	var out []float64
	for _, p := range s.Passes {
		if p.Workload != workload || p.Traced != traced {
			continue
		}
		m := p.Metrics
		if layer {
			m = p.Layers
		}
		if v, ok := m[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// runChild runs one pass in a fresh process of this same binary and reads
// its report back. Children run one at a time: a pass owns the host.
func runChild(o options, workload string, traced bool) (*passReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(o.outDir, "report-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traceArg,
		"-report", tmp.Name()}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	runErr := cmd.Run()
	b, err := os.ReadFile(tmp.Name())
	if err != nil || len(b) == 0 {
		return nil, fmt.Errorf("%s pass wrote no report (%v):\n%s", workload, runErr, out.String())
	}
	var rep passReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	return &rep, nil // a pass that failed its checks still reports; Correct says so
}

// runSets runs -runs sets of every workload, each pass in a fresh process,
// prints every metric and writes the set report.
func runSets(o options) (bool, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	set := &setReport{Host: fingerprint(), Seed: o.seed, Seconds: o.seconds, Runs: o.runs, TraceOverheadPct: map[string][]float64{}}
	for run := 0; run < o.runs; run++ {
		plain := map[string]*passReport{}
		for _, wl := range workloads {
			rep, err := runChild(o, wl.name, false)
			if err != nil {
				return false, err
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s: %.1f %s in the timed section\n", run+1, o.runs, wl.name,
				rep.Metrics["work_per_s"], "work/s")
			set.Passes = append(set.Passes, *rep)
			plain[wl.name] = rep
			if !o.trace {
				continue
			}
			traced, err := runChild(o, wl.name, true)
			if err != nil {
				return false, err
			}
			set.Passes = append(set.Passes, *traced)
			set.crossCheckTraced(rep, traced)
		}
		deep, queue := plain["inject_deep"], plain["inject_queue"]
		set.Checks = append(set.Checks, check{Name: "inject_queue_rows_equal_inject_deep",
			OK:     deep.RowsSHA != "" && deep.RowsSHA == queue.RowsSHA,
			Detail: fmt.Sprintf("inject_deep %s inject_queue %s", deep.RowsSHA, queue.RowsSHA)})
	}
	ok := printSet(os.Stdout, set)
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(o.outDir, o.label+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stdout, "set report: %s\n", path)
	return ok, nil
}

// crossCheckTraced compares a workload's traced pass with its untraced one:
// every exact value and the row digest must agree, and the slowdown of the
// timed section is the tracing overhead.
func (s *setReport) crossCheckTraced(plain, traced *passReport) {
	same := plain.RowsSHA == traced.RowsSHA && len(plain.Exact) == len(traced.Exact)
	detail := ""
	for k, v := range plain.Exact {
		if tv, ok := traced.Exact[k]; !ok || tv != v {
			same = false
			detail += fmt.Sprintf(" %s: %v vs %v;", k, v, tv)
		}
	}
	s.Checks = append(s.Checks, check{Name: plain.Workload + "_exact_metrics_equal_traced_and_untraced", OK: same, Detail: detail})
	if a, b := plain.Metrics["work_per_s"], traced.Metrics["work_per_s"]; a > 0 && b > 0 {
		s.TraceOverheadPct[plain.Workload] = append(s.TraceOverheadPct[plain.Workload], (a/b-1)*100)
	}
}

// printSet prints every metric by name with unit, median, the highest
// percentile the sample count supports, the count and the bound; it reports
// whether every pass and every cross-pass check was correct.
func printSet(w io.Writer, s *setReport) bool {
	h := s.Host
	fmt.Fprintf(w, "serfi bench: seed=%d seconds=%g sets=%d nproc=%d GOMAXPROCS=%d W=%d %s cpu=%q commit=%s\n",
		s.Seed, s.Seconds, s.Runs, h.NProc, h.GOMAXPROCS, h.W, h.GoVersion, h.CPUModel, h.Commit)
	fmt.Fprintf(w, "%-14s %-34s %-12s %14s %20s %4s %7s\n", "workload", "metric", "unit", "median", "high percentile", "n", "bound")
	row := func(workload string, d metricDef, xs []float64) {
		if len(xs) == 0 {
			return
		}
		tail := "-"
		if q, ok := highPercentile(len(xs)); ok {
			tail = fmt.Sprintf("p%g=%.6g", q*100, quantile(xs, q))
		}
		bound := "-"
		switch {
		case d.Better == "exact":
			bound = "exact"
		case d.Bound > 0:
			bound = fmt.Sprintf("%g%%", d.Bound*100)
		}
		fmt.Fprintf(w, "%-14s %-34s %-12s %14.6g %20s %4d %7s\n", workload, d.Name, d.Unit, median(xs), tail, len(xs), bound)
	}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			row(wl.name, d, s.values(wl.name, d.Name, false, false))
		}
		for _, d := range layerMetrics {
			row(wl.name, d, s.values(wl.name, d.Name, true, true))
		}
		if xs := s.TraceOverheadPct[wl.name]; len(xs) > 0 {
			row(wl.name, metricDef{Name: "trace_overhead_pct", Unit: "%"}, xs)
		}
	}
	ok := true
	passed := 0
	for _, p := range s.Passes {
		kind := "untraced"
		if p.Traced {
			kind = "traced"
		}
		if p.Noisy {
			fmt.Fprintf(w, "noisy: %s (%s, seed %d) host_calib_ms %.1f -> %.1f\n", p.Workload, kind, p.Seed, p.CalibMS[0], p.CalibMS[1])
		}
		for _, c := range p.Checks {
			if c.OK {
				passed++
				continue
			}
			ok = false
			fmt.Fprintf(w, "CHECK FAILED %s (%s): %s: %s\n", p.Workload, kind, c.Name, c.Detail)
		}
		if !p.Correct {
			ok = false
		}
	}
	for _, c := range s.Checks {
		if c.OK {
			passed++
			continue
		}
		ok = false
		fmt.Fprintf(w, "CHECK FAILED %s: %s\n", c.Name, c.Detail)
	}
	fmt.Fprintf(w, "checks passed: %d, correct: %v\n", passed, ok)
	return ok
}
