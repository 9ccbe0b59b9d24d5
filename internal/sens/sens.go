// Package sens is the fault-sensitivity attribution layer: it joins the
// per-fault rows a recorded campaign persists (campaign v4 records — the
// fault.Point tuple, the Cho-style outcome, and the escape class/latency
// when propagation tracing ran) against the golden execution they were
// injected into, and answers *where* a scenario is vulnerable rather than
// merely *how much*. Register-file faults resolve to the architectural
// register struck and, through ACE-like residency windows sampled over the
// deterministic golden run (profile.SampleResidency), to the function that
// was live when the fault landed; instruction-memory faults resolve through
// the image's symbol table; data-memory faults to the mapped region and
// 4 KiB page; cache faults to the (level, structure) metadata array. Every
// cell carries a Wilson confidence interval (stats.go), because the rates
// here come from statistical sampling and the paper's cross-ISA deltas live
// or die on whether the error bars overlap.
//
// The join is reproducible from a database row alone: the scenario ID
// rebuilds the image and the golden summary replays the residency walk, so
// `serfi sens` over yesterday's JSONL file reproduces today's report
// bit for bit.
package sens

import (
	"fmt"
	"sort"

	"serfi/internal/cache"
	"serfi/internal/campaign"
	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/isa"
	"serfi/internal/npb"
	"serfi/internal/profile"
)

// PageSize is the granularity of the per-page memory attribution axis.
const PageSize = 0x1000

// Unattributed is the bucket for coordinates the join cannot name: a
// residency window outside the sampled table, a PC with no covering
// symbol, an address outside every mapped region.
const Unattributed = "(unattributed)"

// Cell is one bucket of an attribution table: the outcome distribution of
// every fault that joined to its key, plus the escape-class histogram of
// the traced subset.
type Cell struct {
	Key     string
	Counts  fi.Counts
	Escapes map[string]int
}

// N is the number of faults attributed to the cell.
func (c *Cell) N() int { return c.Counts.Total() }

// Unmasked is the count of silent corruptions, unexpected terminations and
// hangs — the outcomes a reliability engineer pays for.
func (c *Cell) Unmasked() int { return c.Counts.Unmasked() }

// Rate is the unmasked fraction (0 when the cell is empty).
func (c *Cell) Rate() float64 {
	if n := c.N(); n > 0 {
		return float64(c.Unmasked()) / float64(n)
	}
	return 0
}

// CI is the cell's 95% Wilson interval around Rate.
func (c *Cell) CI() (lo, hi float64) { return Wilson95(c.Unmasked(), c.N()) }

// TopEscape is the dominant escape class among the cell's traced faults
// ("" when none were traced). Ties break alphabetically so reports are
// deterministic.
func (c *Cell) TopEscape() string {
	best, n := "", 0
	for class, k := range c.Escapes {
		if k > n || (k == n && n > 0 && class < best) {
			best, n = class, k
		}
	}
	return best
}

// Table is one attribution axis: cells keyed by register name, function,
// page, or cache structure.
type Table struct {
	Title string
	cells map[string]*Cell
}

// NewTable returns an empty attribution table. Analyze builds the report's
// four axes with it; the exp layer builds its own register-level tables
// from recorded rows.
func NewTable(title string) *Table {
	return &Table{Title: title, cells: make(map[string]*Cell)}
}

// Cell returns the bucket for key, creating it on first use.
func (t *Table) Cell(key string) *Cell {
	c, ok := t.cells[key]
	if !ok {
		c = &Cell{Key: key, Escapes: make(map[string]int)}
		t.cells[key] = c
	}
	return c
}

// Len is the number of populated buckets.
func (t *Table) Len() int { return len(t.cells) }

// Cells returns the buckets most-vulnerable first: by unmasked rate, then
// by sample count, then by key — a deterministic order for reports and
// golden tests.
func (t *Table) Cells() []*Cell {
	out := make([]*Cell, 0, len(t.cells))
	for _, c := range t.cells {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Rate(), out[j].Rate()
		if ri != rj {
			return ri > rj
		}
		if out[i].N() != out[j].N() {
			return out[i].N() > out[j].N()
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Report is the attribution of one scenario's recorded campaigns across
// every axis the joined domains populate.
type Report struct {
	Scenario npb.Scenario
	Domains  []fault.Model
	Faults   int // per-fault rows attributed
	Traced   int // rows carrying an escape record
	Total    fi.Counts
	// RowsByDomain counts the joined rows per fault domain (the obs layer's
	// serfi_sens_rows_total axis).
	RowsByDomain map[fault.Model]int

	Registers  *Table // register-file and burst faults, by register name
	Functions  *Table // reg/burst via residency windows, imem via symbols
	Pages      *Table // mem/imem faults, by 4 KiB page
	Structures *Table // cache faults, by (level, structure)

	// Joint is the function x register outcome matrix behind the HTML
	// heatmap, populated by register-file and burst faults only (the two
	// domains where both axes are defined).
	Joint map[string]map[string]*Cell
}

// jointCell returns the (function, register) bucket, creating it lazily.
func (r *Report) jointCell(fn, reg string) *Cell {
	row, ok := r.Joint[fn]
	if !ok {
		row = make(map[string]*Cell)
		r.Joint[fn] = row
	}
	c, ok := row[reg]
	if !ok {
		c = &Cell{Key: fn + "/" + reg, Escapes: make(map[string]int)}
		row[reg] = c
	}
	return c
}

// JointAxes returns the sorted function and register axes of the Joint
// matrix: functions most-vulnerable first, in their Functions-table order
// (every joint function is scored there by the same attribute call), and
// registers in the Registers-table order.
func (r *Report) JointAxes() (funcs, regs []string) {
	for _, c := range r.Functions.Cells() {
		if _, ok := r.Joint[c.Key]; ok {
			funcs = append(funcs, c.Key)
		}
	}
	for _, c := range r.Registers.Cells() {
		regs = append(regs, c.Key)
	}
	return funcs, regs
}

// Context carries the scenario-derived join machinery: the rebuilt image
// (symbols, mapped regions), the ISA register-file shape, and the
// residency table sampled off the golden run.
type Context struct {
	Scenario npb.Scenario
	Img      *cc.Image
	Feat     isa.Features
	Res      *profile.Residency
}

// NewContext rebuilds the join machinery for one scenario from its golden
// summary — everything a stored campaign row already carries, so reports
// are reproducible from the database alone.
func NewContext(sc npb.Scenario, golden campaign.GoldenSummary) (*Context, error) {
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return nil, fmt.Errorf("sens: %w", err)
	}
	res, err := profile.SampleResidency(img, cfg, golden.AppStart, golden.AppEnd, fi.HangBudget(golden.Cycles))
	if err != nil {
		return nil, fmt.Errorf("sens: %w", err)
	}
	return &Context{Scenario: sc, Img: img, Feat: img.Feat, Res: res}, nil
}

// Analyze joins the per-fault rows of one scenario's recorded campaigns
// (one Result per fault domain, all sharing ctx's scenario) against the
// golden run and returns the full attribution report. Results without
// per-run records are rejected — record them with -record-runs.
func Analyze(ctx *Context, results []*campaign.Result) (*Report, error) {
	rep := &Report{
		Scenario:     ctx.Scenario,
		RowsByDomain: make(map[fault.Model]int),
		Registers:    NewTable("per-register"),
		Functions:    NewTable("per-function"),
		Pages:        NewTable("per-page"),
		Structures:   NewTable("per-cache-structure"),
		Joint:        make(map[string]map[string]*Cell),
	}
	for _, r := range results {
		if r.Scenario != ctx.Scenario {
			return nil, fmt.Errorf("sens: result %s does not belong to scenario %s", r.Key(), ctx.Scenario.ID())
		}
		if len(r.Runs) == 0 {
			return nil, fmt.Errorf("sens: %s has no per-run records (record the campaign with -record-runs)", r.Key())
		}
		rep.Domains = append(rep.Domains, r.Domain)
		rep.RowsByDomain[r.Domain] += len(r.Runs)
		for i, run := range r.Runs {
			var escape string
			if i < len(r.Traces) && r.Traces[i] != nil {
				escape = r.Traces[i].Escape.String()
				rep.Traced++
			}
			rep.Faults++
			rep.Total.Add(run.Outcome)
			attribute(ctx, rep, run.Fault, run.Outcome, escape)
		}
	}
	sort.Slice(rep.Domains, func(i, j int) bool { return rep.Domains[i] < rep.Domains[j] })
	return rep, nil
}

// score folds one fault into a cell.
func score(c *Cell, o fi.Outcome, escape string) {
	c.Counts.Add(o)
	if escape != "" {
		c.Escapes[escape]++
	}
}

// attribute joins one fault coordinate to every axis its domain defines.
func attribute(ctx *Context, rep *Report, p fault.Point, o fi.Outcome, escape string) {
	switch p.Domain {
	case fault.Mem:
		score(rep.Pages.Cell(pageKey(ctx.Img, p.Addr)), o, escape)
	case fault.IMem:
		score(rep.Pages.Cell(pageKey(ctx.Img, p.Addr)), o, escape)
		fn := ctx.Img.FuncAt(p.Addr)
		if fn == "" {
			fn = Unattributed
		}
		score(rep.Functions.Cell(fn), o, escape)
	case fault.CacheTag, fault.CacheDirty, fault.CacheRepl:
		kind := "tag"
		switch p.Domain {
		case fault.CacheDirty:
			kind = "status"
		case fault.CacheRepl:
			kind = "lru"
		}
		key := fmt.Sprintf("%s %s", cache.Level(p.Level), kind)
		score(rep.Structures.Cell(key), o, escape)
	default: // fault.Reg, fault.Burst
		reg := fault.RegisterName(ctx.Feat, p.Reg)
		fn := ctx.Res.Func(ctx.Img, p.Index, p.Core)
		if fn == "" {
			fn = Unattributed
		}
		score(rep.Registers.Cell(reg), o, escape)
		score(rep.Functions.Cell(fn), o, escape)
		score(rep.jointCell(fn, reg), o, escape)
	}
}

// pageKey names a data/instruction address's 4 KiB page, annotated with the
// containing mapped region when the image has one.
func pageKey(img *cc.Image, addr uint32) string {
	page := addr &^ (PageSize - 1)
	for _, r := range img.Regions {
		if r.Contains(addr) {
			return fmt.Sprintf("%#08x %s", page, r.Name)
		}
	}
	return fmt.Sprintf("%#08x %s", page, Unattributed)
}
