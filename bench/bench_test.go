package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{7}, 0.5, 7},
		{[]float64{0, 10}, 0.25, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The reporting rule: the highest percentile that still has at least ten
// samples beyond it.
func TestHighPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 0, false}, {39, 0, false},
		{40, 0.75, true}, {99, 0.75, true},
		{100, 0.90, true}, {199, 0.90, true},
		{200, 0.95, true}, {999, 0.95, true},
		{1000, 0.99, true}, {9999, 0.99, true},
		{10000, 0.999, true}, {100000, 0.9999, true},
	}
	for _, c := range cases {
		q, ok := highPercentile(c.n)
		if ok != c.ok || q != c.want {
			t.Errorf("highPercentile(%d) = %g, %v; want %g, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestIQRShareMatchesDriver(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %g, want %g", got, want)
	}
}

// Closed spans add up per layer; a span that never closed adds nothing.
func TestLayerTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	got := layerTimes([]span{
		{Layer: "fi", Start: ms(10), End: ms(40)},
		{Layer: "fi", Start: ms(30), End: ms(60)}, // overlaps the first: another worker
		{Layer: "store", Start: ms(90), End: ms(120)},
		{Layer: "dist", Start: ms(200), End: ms(-1)}, // never closed
	})
	want := map[string]time.Duration{"fi": ms(60), "store": ms(30)}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	higher := metricDef{Name: "inj_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}
	exact := metricDef{Name: "sim_instr_per_inj", Better: "exact"}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same runs", higher, steady, steady, verdictWithin},
		{"small loss", higher, steady, []float64{95, 96, 94, 95, 97}, verdictWithin},
		{"loss beyond bound", higher, steady, []float64{85, 86, 84, 85, 87}, verdictWorse},
		{"clear gain", higher, steady, []float64{120, 121, 119, 120, 122}, verdictBetter},
		{"lower is better: gain", lower, steady, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{"lower is better: loss", lower, steady, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{"wide spread, overlapping", higher, []float64{100, 130, 80, 110, 90}, []float64{85, 120, 95, 70, 105}, verdictUnresolved},
		{"wide spread, every run better", higher, []float64{100, 130, 80, 110, 90}, []float64{200, 260, 160, 220, 180}, verdictBetter},
		{"no runs", higher, steady, nil, verdictUnresolved},
		{"one run each, noise-sized gain", higher, []float64{100}, []float64{100.3}, verdictWithin},
		{"one run each, gain at the noise floor", higher, []float64{100}, []float64{107}, verdictWithin},
		{"one run each, gain beyond the bound", higher, []float64{100}, []float64{115}, verdictBetter},
		{"one run each, loss beyond the bound", lower, []float64{100}, []float64{115}, verdictWorse},
		{"two runs against five, small gain", higher, []float64{100, 101}, []float64{103, 104, 103, 105, 104}, verdictWithin},
		{"exact equal", exact, []float64{7, 7}, []float64{7}, verdictEqual},
		{"exact moved", exact, []float64{7, 7}, []float64{7.000001}, verdictDiffers},
		{"exact unstable in one set", exact, []float64{7, 8}, []float64{7}, verdictDiffers},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareSetsFlagsRegression(t *testing.T) {
	mk := func(inj float64) *setReport {
		return &setReport{Runs: 1, Passes: []passReport{{Workload: "inject_deep", Correct: true,
			Metrics: map[string]float64{"inj_per_s": inj}, Exact: map[string]float64{"sim_instr_per_inj": 5}}}}
	}
	var out bytes.Buffer
	if !compareSets(&out, mk(100), mk(97)) {
		t.Errorf("a 3%% loss within a 10%% bound was flagged:\n%s", out.String())
	}
	out.Reset()
	if compareSets(&out, mk(100), mk(80)) {
		t.Errorf("a 20%% loss was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no %q row in:\n%s", verdictWorse, out.String())
	}
	// Two default sets (-runs 1) that differ by noise claim no gain.
	out.Reset()
	if !compareSets(&out, mk(100), mk(100.3)) || strings.Contains(out.String(), verdictBetter) {
		t.Errorf("a 0.3%% difference between two one-run sets reads as a gain:\n%s", out.String())
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the harness's tables must name the same workloads and
// metrics, with the same unit, direction and bound.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if strings.Join(f.Command, " ") != "go run ./bench" {
		t.Errorf("command = %v", f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if !name.MatchString(w.Name) || w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why differs from the harness or is not one short line", w.Name)
		}
	}

	var gated []metricDef
	for _, d := range endToEnd {
		if d.Gate {
			gated = append(gated, d)
		}
	}
	if len(f.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d gated in the harness", len(f.EndToEnd), len(gated))
	}
	hasSetup := false
	for i, m := range f.EndToEnd {
		d := gated[i]
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("end_to_end %q (%q): bad name or unit", m.Name, m.Unit)
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d is %+v, the harness has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if d.Workloads != nil {
			t.Errorf("end_to_end %s gates but not every workload reports it", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in end_to_end")
	}

	if len(f.PerLayer) != len(layerMetrics) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the harness (at most 128)", len(f.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range f.PerLayer {
		d := layerMetrics[i]
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer %q (%q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Name != d.Name || m.Unit != d.Unit || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per_layer %d is %+v, the harness has %s [%s]", i, m, d.Name, d.Unit)
		}
	}
	for _, d := range endToEnd {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("harness metric %q (%q): bad name or unit", d.Name, d.Unit)
		}
		for _, w := range d.Workloads {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("metric %s names unknown workload %s", d.Name, w)
			}
		}
	}
}

// The smoke run: every workload, an untraced and a traced pass each, at
// -quick sizes. It checks that each pass is correct, that the driver line
// carries exactly the metrics BENCHMARK.json promises, that a workload
// reports the end-to-end metrics it exercises and no others, and that the
// traced pass agrees with the untraced one on every exact value.
func TestQuickSmoke(t *testing.T) {
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = stdout; null.Close() }()

	dir := t.TempDir()
	set := &setReport{TraceOverheadPct: map[string][]float64{}}
	plain := map[string]*passReport{}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runPass(options{workload: wl.name, seed: 7, seconds: defaultSeconds, trace: traced, quick: true, outDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", wl.name, traced, c.Name, c.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			line := rep.driverLine()
			if traced {
				if len(line.Metrics) != len(layerMetrics) {
					t.Errorf("%s: traced driver line has %d metrics, want %d", wl.name, len(line.Metrics), len(layerMetrics))
				}
				if _, err := os.Stat(rep.TraceFile); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", wl.name, err)
				}
				for k := range rep.Layers {
					if _, ok := layerDef(k); !ok {
						t.Errorf("%s: undeclared per-layer metric %s", wl.name, k)
					}
				}
				set.crossCheckTraced(plain[wl.name], rep)
				continue
			}
			plain[wl.name] = rep
			for _, d := range endToEnd {
				v, has := rep.Metrics[d.Name]
				if has != d.appliesTo(wl.name) {
					t.Errorf("%s: metric %s reported=%v, exercised=%v", wl.name, d.Name, has, d.appliesTo(wl.name))
				}
				if d.Gate {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || !(m.Value > 0) || v != m.Value {
						t.Errorf("%s: driver line metric %s = %+v (report has %g)", wl.name, d.Name, m, v)
					}
				}
			}
			if len(line.Metrics) != 3 {
				t.Errorf("%s: untraced driver line has %d metrics", wl.name, len(line.Metrics))
			}
		}
	}
	for _, c := range set.Checks {
		if !c.OK {
			t.Errorf("%s: %s", c.Name, c.Detail)
		}
	}
	if deep, queue := plain["inject_deep"], plain["inject_queue"]; deep.RowsSHA == "" || deep.RowsSHA != queue.RowsSHA {
		t.Errorf("inject_queue rows %s differ from inject_deep rows %s", queue.RowsSHA, deep.RowsSHA)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "scratch-*")); len(left) != 0 {
		t.Errorf("scratch state left behind: %v", left)
	}
}
