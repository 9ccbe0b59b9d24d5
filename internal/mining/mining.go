// Package mining is the paper's cross-layer investigation tool (§3.4): it
// joins fault-injection outcome rates with microarchitectural/profiling
// features in a single dataset and mines correlations between software
// symptoms and soft-error vulnerability (Pearson and Spearman coefficients,
// ranked findings, and the derived indices of §4.1.3 such as the
// function-calls-times-branches Hang predictor).
package mining

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// DataSet is a named-row, named-column table assembled from campaigns
// (step 1) and profiling sources (step 2).
type DataSet struct {
	Rows    []string
	columns map[string][]float64
	order   []string
}

// NewDataSet returns an empty dataset.
func NewDataSet() *DataSet {
	return &DataSet{columns: make(map[string][]float64)}
}

// AddRow appends one observation; missing columns are padded with NaN.
// Columns a row introduces join the order by name, never by map iteration,
// so every ranking over the same rows comes out the same.
func (d *DataSet) AddRow(name string, values map[string]float64) {
	idx := len(d.Rows)
	d.Rows = append(d.Rows, name)
	for _, col := range slices.Sorted(maps.Keys(values)) {
		if _, ok := d.columns[col]; ok {
			continue
		}
		d.columns[col] = make([]float64, idx)
		for i := range d.columns[col] {
			d.columns[col][i] = math.NaN()
		}
		d.order = append(d.order, col)
	}
	for col, vals := range d.columns {
		if v, ok := values[col]; ok {
			d.columns[col] = append(vals, v)
		} else {
			d.columns[col] = append(vals, math.NaN())
		}
	}
}

// Column returns a column's values (shared slice).
func (d *DataSet) Column(name string) ([]float64, bool) {
	c, ok := d.columns[name]
	return c, ok
}

// Select returns the subset of rows whose name passes keep.
func (d *DataSet) Select(keep func(name string) bool) *DataSet {
	out := NewDataSet()
	for i, r := range d.Rows {
		if !keep(r) {
			continue
		}
		row := make(map[string]float64, len(d.order))
		for _, col := range d.order {
			row[col] = d.columns[col][i]
		}
		out.AddRow(r, row)
	}
	return out
}

// pairs extracts the rows where both columns are finite.
func (d *DataSet) pairs(x, y string) (xs, ys []float64) {
	cx, okx := d.columns[x]
	cy, oky := d.columns[y]
	if !okx || !oky {
		return nil, nil
	}
	for i := range cx {
		if !math.IsNaN(cx[i]) && !math.IsNaN(cy[i]) {
			xs = append(xs, cx[i])
			ys = append(ys, cy[i])
		}
	}
	return
}

// Pearson computes the linear correlation coefficient.
func Pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var num, dx, dy float64
	for i := range xs {
		a, b := xs[i]-mx, ys[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return math.NaN()
	}
	return num / math.Sqrt(dx*dy)
}

// ranks converts values into average ranks (for Spearman).
func ranks(vs []float64) []float64 {
	type kv struct {
		v float64
		i int
	}
	s := make([]kv, len(vs))
	for i, v := range vs {
		s[i] = kv{v, i}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	out := make([]float64, len(vs))
	i := 0
	for i < len(s) {
		j := i
		for j+1 < len(s) && s[j+1].v == s[i].v {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[s[k].i] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman computes the rank correlation coefficient.
func Spearman(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	return Pearson(ranks(xs), ranks(ys))
}

// Corr is one mined relationship.
type Corr struct {
	Feature  string
	Target   string
	Pearson  float64
	Spearman float64
	N        int
}

// Correlate ranks every feature column against the target column by
// absolute Spearman coefficient (step 3 of §3.4).
func (d *DataSet) Correlate(target string, exclude ...string) []Corr {
	skip := map[string]bool{target: true}
	for _, e := range exclude {
		skip[e] = true
	}
	var out []Corr
	for _, col := range d.order {
		if skip[col] {
			continue
		}
		xs, ys := d.pairs(col, target)
		if len(xs) < 3 {
			continue
		}
		out = append(out, Corr{
			Feature:  col,
			Target:   target,
			Pearson:  Pearson(xs, ys),
			Spearman: Spearman(xs, ys),
			N:        len(xs),
		})
	}
	// Strongest first, an undefined coefficient (a constant column) last.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := math.Abs(out[i].Spearman), math.Abs(out[j].Spearman)
		return a > b || !math.IsNaN(a) && math.IsNaN(b)
	})
	return out
}

// MeanStd returns mean and standard deviation of a column subset selected
// by the row predicate (the paper's per-macro-scenario sigma values,
// §4.1.3).
func (d *DataSet) MeanStd(col string, keep func(name string) bool) (mean, std float64, n int) {
	c, ok := d.columns[col]
	if !ok {
		return math.NaN(), math.NaN(), 0
	}
	var sum float64
	for i, r := range d.Rows {
		if keep(r) && !math.IsNaN(c[i]) {
			sum += c[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN(), math.NaN(), 0
	}
	mean = sum / float64(n)
	var sq float64
	for i, r := range d.Rows {
		if keep(r) && !math.IsNaN(c[i]) {
			dd := c[i] - mean
			sq += dd * dd
		}
	}
	std = math.Sqrt(sq / float64(n))
	return
}

// Report renders the top-k correlations as a table.
func Report(corrs []Corr, k int) string {
	if k > len(corrs) {
		k = len(corrs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %9s %9s %5s\n", "feature", "target", "pearson", "spearman", "n")
	for _, c := range corrs[:k] {
		fmt.Fprintf(&b, "%-16s %-12s %9.3f %9.3f %5d\n", c.Feature, c.Target, c.Pearson, c.Spearman, c.N)
	}
	return b.String()
}
