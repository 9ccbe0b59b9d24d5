// Command bench is serfi's benchmark: five named workloads, the end-to-end
// metrics a campaign user sees and a per-layer budget, all measured from
// outside the program — by timing calls into each layer's public functions
// and reading the counters the layers already export. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the repo
// root lists what the driver gates on.
//
//	go run ./bench                         one set: every workload, each in a fresh process
//	go run ./bench -trace 1                a set plus one traced pass per workload
//	go run ./bench -workload W -trace 0|1  one pass (the BENCHMARK.json command)
//	go run ./bench -compare A.json B.json  verdict per metric x workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	runs     int
	outDir   string // traces, set reports and scratch state: bench/out, a temp dir under test
	report   string
	label    string
}

func main() {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run one pass of this workload in this process (default: a whole set, one fresh process per pass)")
	flag.Int64Var(&o.seed, "seed", 2018, "seed of fault lists, submission order and the churn op mix")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "size the fixed work of each pass for about this long on the 2-core reference host")
	flag.IntVar(&trace, "trace", 0, "1: traced pass (spans, layer walk, per-layer metrics); 0: untraced pass (end-to-end metrics)")
	flag.BoolVar(&o.quick, "quick", false, "smoke sizes: one scenario, 2 faults, a few dozen churn ops")
	flag.IntVar(&o.runs, "runs", 1, "sets to run (set mode)")
	flag.StringVar(&o.report, "report", "", "write this pass's full report here (used by set mode)")
	flag.StringVar(&o.label, "label", "set", "name of the set report written under bench/out (set mode)")
	flag.BoolVar(&compare, "compare", false, "compare two set reports: -compare A.json B.json")
	flag.Parse()
	o.trace = trace != 0
	o.outDir = filepath.Join("bench", "out")

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case o.workload != "":
		rep, err := runPass(o)
		if err != nil {
			fatal(err)
		}
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runSets(o)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// hostInfo is the fingerprint recorded with every pass.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"w"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// workers is W of the run model: host workers or clients, never more
// goroutines doing work than this.
func workers() int {
	return min(runtime.NumCPU(), 4)
}

func fingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		W:          workers(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate runs a fixed pure-Go kernel (integer mixing over a 1 MiB table)
// three times, about 0.3 s in all on the reference host, and returns the
// fastest run in ms: the fastest of three is what the host can do when
// nothing interferes. Run before and after a workload, the pair shows
// whether the host itself drifted while the workload was measured.
func calibrate(quick bool) float64 {
	const words = 1 << 17
	rounds := 350
	if quick {
		rounds = 3
	}
	tab := make([]uint64, words)
	x := uint64(0x9E3779B97F4A7C15)
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i := range tab {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				tab[i] += x ^ tab[(i+int(x&1023))&(words-1)]
			}
		}
		best = min(best, time.Since(t0))
	}
	calibSink += tab[x&(words-1)]
	return float64(best.Nanoseconds()) / 1e6
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// check is one output check of a pass.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// passReport is everything one pass measured; set mode collects them and
// -compare reads them back.
type passReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Quick     bool               `json:"quick,omitempty"`
	Host      hostInfo           `json:"host"`
	CalibMS   [2]float64         `json:"host_calib_ms"`
	Noisy     bool               `json:"noisy"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	// Exact holds the values that must not differ between the traced and the
	// untraced pass of one workload at one seed, nor between two commits
	// that did not change the model.
	Exact     map[string]float64 `json:"exact"`
	RowsSHA   string             `json:"rows_sha256,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// driverLine is the last stdout line of a pass, the shape BENCHMARK.json's
// driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runPass runs one workload once in this process: calibrate, set up, the
// timed section, the output checks, calibrate again, report.
func runPass(o options) (*passReport, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "scratch-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	// An interrupted pass leaves no scratch state either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(scratch)
			os.Exit(130)
		}
	}()

	rep := &passReport{
		Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Quick: o.quick,
		Host: fingerprint(),
	}
	rep.CalibMS[0] = calibrate(o.quick)

	p := newPass(o, scratch)
	runErr := wl.run(p)
	if runErr != nil {
		p.check("run", false, runErr.Error())
	}
	if o.trace {
		rep.TraceFile = filepath.Join(o.outDir, wl.name+".trace.json")
		if err := p.rec.writeChrome(rep.TraceFile); err != nil {
			p.check("trace_written", false, err.Error())
		}
		p.layerBudget()
	}
	p.metric("peak_rss_mb", peakRSSMB()) // read before the set-up repeats: they are not the workload's memory
	p.repeatSetUps()
	p.finish()

	rep.CalibMS[1] = calibrate(o.quick)
	lo, hi := min(rep.CalibMS[0], rep.CalibMS[1]), max(rep.CalibMS[0], rep.CalibMS[1])
	rep.Noisy = hi > lo*1.10 && !o.quick // a smoke run calibrates too briefly to tell
	rep.Attempted, rep.Failed = p.attempted, p.failed
	rep.Checks, rep.Metrics, rep.Layers, rep.Exact, rep.RowsSHA = p.checks, p.metrics, p.layers, p.exact, p.rowsSHA
	rep.Correct = p.failed == 0 && runErr == nil

	printPass(os.Stdout, rep)
	if o.report != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.report, b, 0o644); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(rep.driverLine())
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return rep, nil
}

// driverLine renders the pass the way BENCHMARK.json's contract wants it:
// an untraced pass carries every gated end-to-end metric, a traced pass
// every per-layer metric (0 where this workload does no work in the layer).
func (rep *passReport) driverLine() driverLine {
	dl := driverLine{Correct: rep.Correct, Attempted: max(rep.Attempted, 1), Failed: rep.Failed,
		Metrics: map[string]driverMetric{}}
	if rep.Traced {
		for _, d := range layerMetrics {
			dl.Metrics[d.Name] = driverMetric{Value: rep.Layers[d.Name], Unit: d.Unit}
		}
		return dl
	}
	for _, d := range endToEnd {
		if d.Gate {
			dl.Metrics[d.Name] = driverMetric{Value: rep.Metrics[d.Name], Unit: d.Unit}
		}
	}
	return dl
}

// printPass prints every metric of one pass by name with its unit.
func printPass(w io.Writer, rep *passReport) {
	h := rep.Host
	fmt.Fprintf(w, "# %s seed=%d seconds=%g traced=%v nproc=%d GOMAXPROCS=%d W=%d %s cpu=%q commit=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Traced, h.NProc, h.GOMAXPROCS, h.W, h.GoVersion, h.CPUModel, h.Commit)
	for _, d := range endToEnd {
		if v, ok := rep.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-14s %-24s %16.6g %s\n", rep.Workload, d.Name, v, d.Unit)
		}
	}
	for _, d := range layerMetrics {
		if v, ok := rep.Layers[d.Name]; ok {
			fmt.Fprintf(w, "%-14s %-32s %16.6g %s\n", rep.Workload, d.Name, v, d.Unit)
		}
	}
	noisy := ""
	if rep.Noisy {
		noisy = " noisy"
	}
	fmt.Fprintf(w, "%-14s host_calib_ms %.1f %.1f%s\n", rep.Workload, rep.CalibMS[0], rep.CalibMS[1], noisy)
	for _, c := range rep.Checks {
		if !c.OK {
			fmt.Fprintf(w, "%-14s CHECK FAILED %s: %s\n", rep.Workload, c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "%-14s checks %d attempted %d failed %d\n", rep.Workload, len(rep.Checks), rep.Attempted, rep.Failed)
}
