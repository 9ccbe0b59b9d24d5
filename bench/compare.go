package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of -compare, for one metric on one workload.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictEqual      = "equal"
	verdictDiffers    = "differs"
)

// minSpreadRuns is the fewest runs per side from which a run-to-run spread
// is estimated.
const minSpreadRuns = 3

// judge compares the runs of a baseline (a) and a candidate (b) of one
// metric. A metric whose run-to-run spread is wider than its bound is
// unresolved — not unchanged — unless every candidate run reads better than
// every baseline run. A gain counts as better only when it clears the noise:
// the baseline's spread, or, with fewer than minSpreadRuns runs on a side
// (no spread to estimate), the bound itself. Exact metrics are compared for
// equality.
func judge(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	if d.Better == "exact" {
		for _, xs := range [][]float64{a, b} {
			for _, x := range xs {
				if x != a[0] {
					return verdictDiffers
				}
			}
		}
		return verdictEqual
	}
	sign := 1.0 // +1: higher is better
	if d.Better == "lower" {
		sign = -1
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) <= 0 {
				allBetter = false
			}
		}
	}
	gain := sign * (mb - ma) // positive: the candidate's median is better
	noise := d.Bound * ma
	if len(a) >= minSpreadRuns && len(b) >= minSpreadRuns {
		if max(iqrShare(a), iqrShare(b)) > d.Bound {
			if allBetter {
				return verdictBetter
			}
			return verdictUnresolved
		}
		noise = iqrShare(a) * ma
	}
	switch {
	case -gain > d.Bound*ma:
		return verdictWorse
	case allBetter && gain > noise:
		return verdictBetter
	}
	return verdictWithin
}

func loadSet(path string) (*setReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setReport
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exactValues collects one Exact entry of a workload over all passes.
func (s *setReport) exactValues(workload, name string) []float64 {
	var out []float64
	for _, p := range s.Passes {
		if p.Workload == workload {
			if v, ok := p.Exact[name]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// compareFiles prints one row per metric x workload for two set reports —
// both medians, the ratio with its base, the bound and the verdict — and
// reports whether nothing got worse and no exact value moved.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b), nil
}

func compareSets(w io.Writer, a, b *setReport) bool {
	fmt.Fprintf(w, "A: commit %s seed %d seconds %g sets %d   B: commit %s seed %d seconds %g sets %d\n",
		a.Host.Commit, a.Seed, a.Seconds, a.Runs, b.Host.Commit, b.Seed, b.Seconds, b.Runs)
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintln(w, "warning: seed or size differ, exact metrics are not expected to agree")
	}
	fmt.Fprintf(w, "%-14s %-34s %-12s %14s %14s %22s %7s  %s\n", "workload", "metric", "unit", "median A", "median B", "ratio B/A (base A)", "bound", "verdict")
	ok := true
	row := func(workload string, d metricDef, xa, xb []float64) {
		if len(xa) == 0 && len(xb) == 0 {
			return
		}
		v := judge(d, xa, xb)
		if v == verdictWorse || v == verdictDiffers {
			ok = false
		}
		bound := "exact"
		if d.Better != "exact" {
			bound = fmt.Sprintf("%g%%", d.Bound*100)
		}
		ratio := "-"
		if len(xa) > 0 && len(xb) > 0 && median(xa) != 0 {
			ratio = fmt.Sprintf("%.4f (%.6g)", median(xb)/median(xa), median(xa))
		}
		fmt.Fprintf(w, "%-14s %-34s %-12s %14.6g %14.6g %22s %7s  %s\n", workload, d.Name, d.Unit, median(xa), median(xb), ratio, bound, v)
	}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			row(wl.name, d, a.values(wl.name, d.Name, false, false), b.values(wl.name, d.Name, false, false))
		}
		// Exact values every pass carries (traced or not), beyond the
		// end-to-end ones already listed.
		names := map[string]bool{}
		for _, s := range []*setReport{a, b} {
			for _, p := range s.Passes {
				if p.Workload == wl.name {
					for k := range p.Exact {
						if _, listed := endToEndDef(k); !listed {
							names[k] = true
						}
					}
				}
			}
		}
		sorted := make([]string, 0, len(names))
		for k := range names {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			unit := "count"
			if d, ok := layerDef(k); ok {
				unit = d.Unit
			}
			row(wl.name, metricDef{Name: k, Unit: unit, Better: "exact"}, a.exactValues(wl.name, k), b.exactValues(wl.name, k))
		}
	}
	for _, wl := range workloads {
		digests := map[string]bool{}
		for _, s := range []*setReport{a, b} {
			for _, p := range s.Passes {
				if p.Workload == wl.name && p.RowsSHA != "" {
					digests[p.RowsSHA] = true
				}
			}
		}
		if len(digests) > 1 {
			ok = false
			fmt.Fprintf(w, "%-14s %-34s %d different row digests  %s\n", wl.name, "rows_sha256", len(digests), verdictDiffers)
		}
	}
	for _, s := range []*setReport{a, b} {
		for _, p := range s.Passes {
			if !p.Correct {
				ok = false
				fmt.Fprintf(w, "incorrect pass: %s seed %d (failed %d of %d)\n", p.Workload, p.Seed, p.Failed, p.Attempted)
			}
		}
	}
	fmt.Fprintf(w, "agree: %v\n", ok)
	return ok
}
