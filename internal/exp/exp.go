// Package exp formats every table and figure of the paper's evaluation
// from a matrix of campaign rows: Table 1 (workload summary), Table 2 (Hang
// vs the function-calls-x-branches index), Tables 3/4 (memory transactions
// vs outcome classes), Figures 2/3 (per-scenario outcome distributions and
// MPI-vs-OMP mismatch) plus the narrative statistics of §4.1.3 and §4.2.2
// and the intro trends of Figure 1. It runs nothing: the rows come from a
// live engine run, a fetched queue submission or a recorded store alike.
// Absolute values reflect the miniature workloads; EXPERIMENTS.md records
// paper-vs-measured shape checks.
package exp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mining"
	"serfi/internal/npb"
	"serfi/internal/prop"
	"serfi/internal/sens"
	"serfi/internal/soc"
)

// Matrix holds one campaign result per (scenario, fault domain) — the rows
// every artefact formats from. The paper's tables and figures read the
// register-domain results; DomainTable compares domains.
type Matrix struct {
	Order   []npb.Scenario
	Domains []fault.Model
	Results map[string]*campaign.Result // keyed by campaign.Key
	// Faults and Seed are the scale the rows were recorded at: the
	// per-campaign fault count and the matrix's base seed.
	Faults int
	Seed   int64
}

// NewMatrix indexes campaign rows into a Matrix. Scenario order follows the
// npb catalog and domain order fault.Models, whatever order the rows come
// in. The fault count and base seed are read off the rows (uniform across a
// matrix: resume validation refuses mixed databases), the seed back-derived
// from the first row's catalog position per the Engine.JobsFor convention.
// Only stored columns survive a store round trip: wall-clock spans are
// never persisted.
func NewMatrix(results []*campaign.Result) *Matrix {
	m := &Matrix{Results: make(map[string]*campaign.Result, len(results))}
	for _, r := range results {
		m.Results[r.Key()] = r
	}
	haveDomain := make(map[fault.Model]bool)
	for i, sc := range npb.Scenarios() {
		inMatrix := false
		for _, d := range fault.Models() {
			r, ok := m.Results[campaign.Key(sc, d)]
			if !ok {
				continue
			}
			if len(m.Order) == 0 && !inMatrix {
				m.Faults, m.Seed = r.Faults, r.Seed-int64(i)
			}
			inMatrix = true
			haveDomain[d] = true
		}
		if inMatrix {
			m.Order = append(m.Order, sc)
		}
	}
	for _, d := range fault.Models() {
		if haveDomain[d] {
			m.Domains = append(m.Domains, d)
		}
	}
	return m
}

// Get returns a scenario's register-domain result (nil when absent) — the
// rows the paper's own tables and figures are built from.
func (m *Matrix) Get(sc npb.Scenario) *campaign.Result {
	return m.Results[campaign.Key(sc, fault.Reg)]
}

// GetDomain returns a scenario's result under one fault domain.
func (m *Matrix) GetDomain(sc npb.Scenario, d fault.Model) *campaign.Result {
	return m.Results[campaign.Key(sc, d)]
}

// HasDomain reports whether the matrix ran campaigns under the model.
func (m *Matrix) HasDomain(d fault.Model) bool {
	return slices.Contains(m.Domains, d)
}

// filter selects register-domain results in matrix order.
func (m *Matrix) filter(keep func(npb.Scenario) bool) []*campaign.Result {
	var out []*campaign.Result
	for _, sc := range m.Order {
		if keep(sc) {
			if r := m.Get(sc); r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// The paper's quantities. Each has one computation, read both by its shape
// check and by the artefact that prints it, and reports how many rows it
// read: a quantity that read none prints as absent and its check as
// "no data".

// instrRatio is the ARMv7/ARMv8 ratio of average executed instructions
// (Table 1, T1); n is 0 unless both ISAs have a row.
func instrRatio(m *Matrix) (ratio float64, n int) {
	avg := func(isa string) (float64, int) {
		rs := m.filter(func(sc npb.Scenario) bool { return sc.ISA == isa })
		s := 0.0
		for _, r := range rs {
			s += float64(r.Golden.Retired)
		}
		return s / float64(len(rs)), len(rs)
	}
	a7, n7 := avg("armv7")
	a8, n8 := avg("armv8")
	if n7 == 0 || n8 == 0 || a8 == 0 {
		return 0, 0
	}
	return a7 / a8, n7 + n8
}

// macroGroup is one §4.1.3 macro scenario's branch share over its n rows.
type macroGroup struct {
	label, isa, mode string
	mean, std        float64
	n                int
}

// branchShares is the branch share of the four macro scenarios (MacroStats,
// S413), in the order MPI V7, OMP V7, MPI V8, OMP V8.
func branchShares(m *Matrix) []macroGroup {
	d := Dataset(m)
	gs := []macroGroup{
		{label: "MPI V7", isa: "armv7", mode: "MPI"},
		{label: "OMP V7", isa: "armv7", mode: "OMP"},
		{label: "MPI V8", isa: "armv8", mode: "MPI"},
		{label: "OMP V8", isa: "armv8", mode: "OMP"},
	}
	for i := range gs {
		g := &gs[i]
		g.mean, g.std, g.n = d.MeanStd("branch_pct", func(name string) bool {
			return strings.HasPrefix(name, g.isa) && strings.Contains(name, g.mode)
		})
	}
	return gs
}

// cores124 is one app under one model on one ISA at 1, 2 and 4 cores.
func cores124(app string, mode npb.Mode, isa string) []npb.Scenario {
	var out []npb.Scenario
	for _, cores := range []int{1, 2, 4} {
		out = append(out, npb.Scenario{App: app, Mode: mode, ISA: isa, Cores: cores})
	}
	return out
}

// isGroup is IS under one model at 1, 2 and 4 cores (Table 2, T2), nil
// where the matrix lacks the scenario, and the number of rows present.
func isGroup(m *Matrix, mode npb.Mode, isa string) (rs [3]*campaign.Result, n int) {
	for i, sc := range cores124("IS", mode, isa) {
		if rs[i] = m.Get(sc); rs[i] != nil {
			n++
		}
	}
	return rs, n
}

// mpiOMPPair is one app run under both MPI and OMP at one core count.
type mpiOMPPair struct {
	app      string
	cores    int
	mpi, omp *campaign.Result
}

// pairs lists the MPI/OMP pairs the matrix holds on the ISAs, in ISA, app
// and core-count order (the Figure 2/3 (c) panel, mpiMasksMore).
func pairs(m *Matrix, isas ...string) []mpiOMPPair {
	var out []mpiOMPPair
	for _, isaName := range isas {
		for _, app := range npb.Apps() {
			if !app.HasMPI || !app.HasOMP {
				continue
			}
			for _, cores := range []int{1, 2, 4} {
				if app.MPISquare && cores == 2 {
					continue
				}
				a := m.Get(npb.Scenario{App: app.Name, Mode: npb.MPI, ISA: isaName, Cores: cores})
				o := m.Get(npb.Scenario{App: app.Name, Mode: npb.OMP, ISA: isaName, Cores: cores})
				if a != nil && o != nil {
					out = append(out, mpiOMPPair{app.Name, cores, a, o})
				}
			}
		}
	}
	return out
}

// mpiMasksMore counts, over the n MPI/OMP pairs of both ISAs, the pairs in
// which MPI masks strictly more often (wins), strictly less often (losses)
// and as often (tied) (VulnWindow, S422a).
func mpiMasksMore(m *Matrix) (wins, losses, tied, n int) {
	ps := pairs(m, "armv7", "armv8")
	for _, p := range ps {
		switch mpi, omp := p.mpi.Counts.Masking(), p.omp.Counts.Masking(); {
		case mpi > omp:
			wins++
		case mpi < omp:
			losses++
		default:
			tied++
		}
	}
	return wins, losses, tied, len(ps)
}

// signTest is the exact one-sided sign test at 5 % over untied pairs: wins
// for one side, losses for the other. p is the probability, under fair coin
// flips, of a split at least as lopsided toward the side the counts lean to
// (1 with no untied pair). The verdict is "yes" when the wins are
// significant, "NO" when the losses are, and "undetermined" otherwise.
func signTest(wins, losses int) (p float64, verdict string) {
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	n := wins + losses
	for i := max(wins, losses); i <= n; i++ { // P(X >= i), X ~ Binomial(n, 1/2)
		p += math.Exp(lg(n) - lg(i) - lg(n-i) - float64(n)*math.Ln2)
	}
	switch {
	case p > 0.05:
		return p, "undetermined"
	case wins > losses:
		return p, "yes"
	}
	return p, "NO"
}

// meanImbalance is the mean per-core instruction imbalance over every
// scenario of the model with more than one core (VulnWindow, S422b).
func meanImbalance(m *Matrix, mode npb.Mode) (mean float64, n int) {
	rs := m.filter(func(sc npb.Scenario) bool { return sc.Mode == mode && sc.Cores > 1 })
	if len(rs) == 0 {
		return 0, 0
	}
	for _, r := range rs {
		mean += r.Features.CoreImbalance
	}
	return mean / float64(len(rs)), len(rs)
}

// maxAPIWindow is the largest parallelization-API vulnerability window over
// the n MPI and OMP rows (VulnWindow, S422c). A serial scenario calls no
// API, so its window is 0 and it is not read.
func maxAPIWindow(m *Matrix) (w float64, n int) {
	for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.Mode != npb.Serial }) {
		w = math.Max(w, r.Features.APIWindow)
		n++
	}
	return w, n
}

// domainCounts sums one fault domain's outcome counts over the n campaigns
// of the scenarios keep selects (DomainTable, D1, D2).
func domainCounts(m *Matrix, d fault.Model, keep func(npb.Scenario) bool) (agg fi.Counts, n int) {
	for _, sc := range m.Order {
		r := m.GetDomain(sc, d)
		if r == nil || !keep(sc) {
			continue
		}
		n++
		for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
			agg[o] += r.Counts[o]
		}
	}
	return agg, n
}

// Table1 reproduces the NPB workload summary: smaller/average/larger
// single-run simulation time, fault-campaign time and executed instructions
// per ISA, plus campaign totals. A database stores no host wall clock, so
// over rows read back from one the three time rows give way to a note.
func Table1(m *Matrix) string {
	var b strings.Builder
	const row = "%-30s %-6s %12s %12s %12s\n" // the description column fits "Total Fault Campaign (compute)"
	timed := false
	for _, r := range m.Results {
		timed = timed || r.GoldenWallSec > 0 || r.CampaignWallSec > 0 || r.JobWallSec > 0
	}
	fmt.Fprintf(&b, "Table 1: NPB workload summary (miniature classes; paper shape: ARMv7 >> ARMv8)\n")
	fmt.Fprintf(&b, row, "Description", "ISA", "Smaller", "Average", "Larger")
	if !timed {
		fmt.Fprintf(&b, "(time rows omitted: these rows carry no host wall clock, which a database does not store)\n")
	}
	for _, line := range []struct {
		name string
		wall bool
		get  func(*campaign.Result) float64
		fmtv func(float64) string
	}{
		{"Simulation Time Single Run", true, func(r *campaign.Result) float64 { return r.GoldenWallSec },
			func(v float64) string { return fmt.Sprintf("%.3fs", v) }},
		{"Fault Campaign Run", true, func(r *campaign.Result) float64 { return r.CampaignWallSec },
			func(v float64) string { return fmt.Sprintf("%.1fs", v) }},
		{"Executed Instructions", false, func(r *campaign.Result) float64 { return float64(r.Golden.Retired) },
			func(v float64) string { return fmt.Sprintf("%.3g", v) }},
	} {
		if line.wall && !timed {
			continue
		}
		for _, isaName := range []string{"armv8", "armv7"} {
			rs := m.filter(func(sc npb.Scenario) bool { return sc.ISA == isaName })
			if len(rs) == 0 {
				continue
			}
			lo, hi, sum := line.get(rs[0]), line.get(rs[0]), 0.0
			for _, r := range rs {
				v := line.get(r)
				lo, hi, sum = min(lo, v), max(hi, v), sum+v
			}
			fmt.Fprintf(&b, row, line.name, isaName,
				line.fmtv(lo), line.fmtv(sum/float64(len(rs))), line.fmtv(hi))
		}
	}
	// The campaign total sums ExclusiveCompute, not CampaignWallSec:
	// campaigns overlap on the shared worker pool, so their open-to-close
	// spans double-count pool time when added.
	for _, isaName := range []string{"armv8", "armv7"} {
		total := 0.0
		for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.ISA == isaName }) {
			total += r.ExclusiveCompute()
		}
		if timed {
			fmt.Fprintf(&b, "%-30s %-6s %12s\n", "Total Fault Campaign (compute)", isaName, fmt.Sprintf("%.1fs", total))
		}
	}
	if ratio, n := instrRatio(m); n > 0 {
		fmt.Fprintf(&b, "ARMv7/ARMv8 average executed-instruction ratio: %.1fx (paper: ~25x from software FP)\n", ratio)
	}
	return b.String()
}

// Table2 reproduces the Hang-vs-F*B-index case study on IS.
func Table2(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Hang occurrence vs normalized function-calls x branches (IS)\n")
	fmt.Fprintf(&b, "%-12s %-10s %10s %10s %10s\n", "Scenario", "Param", "Single", "Dual", "Quad")
	for _, group := range []struct {
		label string
		mode  npb.Mode
		isa   string
	}{
		{"IS MPI V7", npb.MPI, "armv7"},
		{"IS OMP V7", npb.OMP, "armv7"},
		{"IS MPI V8", npb.MPI, "armv8"},
		{"IS OMP V8", npb.OMP, "armv8"},
	} {
		rs, n := isGroup(m, group.mode, group.isa)
		if n == 0 {
			continue // no scenario of the group was run
		}
		norm := 1.0
		if rs[0] != nil && rs[0].Features.FBIndex != 0 {
			norm = rs[0].Features.FBIndex
		}
		// One row of three cells; a scenario the matrix lacks prints "-".
		line := func(label, param, verb string, get func(*campaign.Result) float64) {
			fmt.Fprintf(&b, "%-12s %-10s", label, param)
			for _, r := range rs {
				if r == nil {
					fmt.Fprintf(&b, " %10s", "-")
				} else {
					fmt.Fprintf(&b, " %10"+verb, get(r))
				}
			}
			b.WriteString("\n")
		}
		line(group.label, "Hang (%)", ".3f", func(r *campaign.Result) float64 { return 100 * r.Counts.Rate(fi.Hang) })
		line("", "Branches", ".3g", func(r *campaign.Result) float64 { return r.Features.Branches })
		line("", "F. Calls", ".3g", func(r *campaign.Result) float64 { return r.Features.Calls })
		line("", "Index F*B", ".3f", func(r *campaign.Result) float64 { return r.Features.FBIndex / norm })
	}
	return b.String()
}

// memTable shares the Table 3/4 layout.
func memTable(m *Matrix, title string, rows []npb.Scenario, labels []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-4s %-14s %12s %6s %10s %8s\n",
		"#", "Scenario", "V+OMM+ONA(%)", "UT(%)", "MemInst(%)", "RD/WR")
	for i, sc := range rows {
		r := m.Get(sc)
		if r == nil {
			continue
		}
		masked := 100 * (r.Counts.Rate(fi.Vanished) + r.Counts.Rate(fi.OMM) + r.Counts.Rate(fi.ONA))
		fmt.Fprintf(&b, "%-4s %-14s %12.1f %6.1f %10.1f %8.2f\n",
			labels[i], fmt.Sprintf("%s %sx%d", sc.App, sc.Mode, sc.Cores),
			masked, 100*r.Counts.Rate(fi.UT), r.Features.MemInstrPct, r.Features.RdWrRatio)
	}
	return b.String()
}

// The rows Tables 3 and 4 print, in print order.
var (
	table3Rows = slices.Concat(cores124("MG", npb.MPI, "armv7"), cores124("IS", npb.MPI, "armv7"))
	table4Rows = slices.Concat(cores124("LU", npb.OMP, "armv8"), cores124("SP", npb.OMP, "armv8"),
		cores124("FT", npb.MPI, "armv8"))
)

// Table3 reproduces the ARMv7 memory-transaction table (MG/IS MPI).
func Table3(m *Matrix) string {
	return memTable(m, "Table 3: ARMv7 memory transactions and soft-error classes",
		table3Rows, []string{"1", "2", "3", "4", "5", "6"})
}

// Table4 reproduces the ARMv8 memory-transaction table (LU/SP OMP, FT MPI).
func Table4(m *Matrix) string {
	return memTable(m, "Table 4: ARMv8 memory transactions and soft-error classes",
		table4Rows, []string{"A", "B", "C", "D", "E", "F", "G", "H", "I"})
}

// DomainTable is the register-vs-memory counterpart of Tables 3/4: the
// outcome distribution aggregated per fault domain per ISA. The paper
// injects into architectural registers only; this table extends its
// methodology along the fault-space axis (uncore/memory-path faults after
// Cho et al., instruction-word strikes, multi-bit register bursts) so the
// cross-domain movement of the outcome classes becomes visible.
func DomainTable(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Domain Table: outcome distribution by fault domain (register vs memory fault spaces)\n")
	fmt.Fprintf(&b, "%-6s %-10s %5s %7s %6s %6s %6s %6s %6s %9s\n",
		"ISA", "Domain", "scen", "faults", "V%", "ONA%", "OMM%", "UT%", "Hang%", "Masking%")
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, d := range m.Domains {
			agg, scen := domainCounts(m, d, func(sc npb.Scenario) bool { return sc.ISA == isaName })
			if scen == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-6s %-10s %5d %7d %6.1f %6.1f %6.1f %6.1f %6.1f %9.1f\n",
				isaName, d, scen, agg.Total(),
				100*agg.Rate(fi.Vanished), 100*agg.Rate(fi.ONA), 100*agg.Rate(fi.OMM),
				100*agg.Rate(fi.UT), 100*agg.Rate(fi.Hang), 100*agg.Masking())
		}
	}
	if len(m.Domains) == 1 {
		fmt.Fprintf(&b, "(single-domain matrix; run with -faultmodel all to compare fault spaces)\n")
	}
	return b.String()
}

// PropTable formats the propagation-tracing fold: per ISA per domain, how
// many unmasked injections were traced, the escape-class mix (severity-max
// per trace), the cross-core escape rate and the median latency from
// injection to first architectural corruption. It extends the paper's
// outcome taxonomy with the propagation axis: not just whether a fault
// escaped, but how far and how fast.
func PropTable(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Propagation Table: escape class and latency-to-first-corruption by fault domain\n")
	fmt.Fprintf(&b, "%-6s %-10s %7s", "ISA", "Domain", "traced")
	for c := prop.Class(0); c < prop.NumClasses; c++ {
		fmt.Fprintf(&b, " %7s", c)
	}
	fmt.Fprintf(&b, " %7s %10s %10s\n", "xcore%", "med(inst)", "med(cyc)")
	traced := 0
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, d := range m.Domains {
			var agg prop.Summary
			for _, sc := range m.Order {
				if sc.ISA != isaName {
					continue
				}
				if r := m.GetDomain(sc, d); r != nil {
					agg.Merge(r.Prop)
				}
			}
			if agg.Traced == 0 {
				continue
			}
			traced += agg.Traced
			fmt.Fprintf(&b, "%-6s %-10s %7d", isaName, d, agg.Traced)
			for c := prop.Class(0); c < prop.NumClasses; c++ {
				fmt.Fprintf(&b, " %7d", agg.EscapeCount(c))
			}
			mi, okI := agg.MedianInstr()
			mc, okC := agg.MedianCyc()
			instr, cyc := "-", "-"
			if okI {
				instr = fmt.Sprintf("%d", mi)
			}
			if okC {
				cyc = fmt.Sprintf("%d", mc)
			}
			fmt.Fprintf(&b, " %7.1f %10s %10s\n", 100*agg.XCoreRate(), instr, cyc)
		}
	}
	if traced == 0 {
		fmt.Fprintf(&b, "(no propagation traces recorded; run with -trace-prop)\n")
	}
	return b.String()
}

// SensTable formats the register-level sensitivity slice of the recorded
// per-fault rows: per ISA, the architecturally named registers ranked by
// unmasked-outcome rate with 95% Wilson intervals, aggregated over every
// recorded register-file and burst campaign in the matrix. The full
// function/page/cache attribution (which needs the rebuilt image and a
// residency walk) lives in `serfi sens`; this artefact stays cheap enough
// to regenerate from a stored matrix alone.
func SensTable(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensitivity Table: per-register unmasked rate over recorded campaigns (95%% Wilson CI)\n")
	fmt.Fprintf(&b, "%-6s %-8s %7s %9s %8s %13s\n", "ISA", "register", "n", "unmasked", "rate", "95% CI")
	const top = 10
	rows := 0
	for _, isaName := range []string{"armv7", "armv8"} {
		cfg, err := soc.Config(isaName, 1)
		if err != nil {
			continue
		}
		feat := cfg.ISA.Feat()
		t := sens.NewTable(isaName)
		for _, d := range m.Domains {
			if d != fault.Reg && d != fault.Burst {
				continue
			}
			for _, sc := range m.Order {
				if sc.ISA != isaName {
					continue
				}
				r := m.GetDomain(sc, d)
				if r == nil || len(r.Runs) == 0 {
					continue
				}
				for _, run := range r.Runs {
					t.Cell(fault.RegisterName(feat, run.Fault.Reg)).Counts.Add(run.Outcome)
				}
			}
		}
		cells := t.Cells()
		for i, c := range cells {
			if i >= top {
				fmt.Fprintf(&b, "%-6s ... %d more registers\n", isaName, len(cells)-top)
				break
			}
			lo, hi := c.CI()
			fmt.Fprintf(&b, "%-6s %-8s %7d %9d %7.1f%% %5.1f-%5.1f%%\n",
				isaName, c.Key, c.N(), c.Unmasked(), 100*c.Rate(), 100*lo, 100*hi)
			rows++
		}
	}
	if rows == 0 {
		fmt.Fprintf(&b, "(no recorded per-fault rows)\n")
	}
	return b.String()
}

// bar renders a proportional ASCII segment bar for one outcome class mix.
func bar(c fi.Counts, width int) string {
	chars := []byte{'V', 'o', 'M', 'U', 'H'}
	var sb strings.Builder
	for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
		n := int(c.Rate(o)*float64(width) + 0.5)
		for i := 0; i < n; i++ {
			sb.WriteByte(chars[o])
		}
	}
	s := sb.String()
	if len(s) > width {
		s = s[:width]
	}
	return s + strings.Repeat(".", width-len(s))
}

// figure renders Figures 2a/2b or 3a/3b: outcome distributions per app for
// SER plus one parallel mode at 1/2/4 cores, and the (c) mismatch panel.
func figure(m *Matrix, isaName, figName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: NPB fault injections on %s (V=Vanished o=ONA M=OMM U=UT H=Hang)\n", figName, isaName)
	panel := func(mode npb.Mode, label string) {
		fmt.Fprintf(&b, "(%s) %s benchmarks\n", label, mode)
		for _, app := range npb.Apps() {
			var has bool
			if mode == npb.MPI {
				has = app.HasMPI
			} else {
				has = app.HasOMP
			}
			if !has {
				continue
			}
			variants := []npb.Scenario{{App: app.Name, Mode: npb.Serial, ISA: isaName, Cores: 1}}
			for _, cc := range []int{1, 2, 4} {
				if app.MPISquare && mode == npb.MPI && cc == 2 {
					continue
				}
				variants = append(variants, npb.Scenario{App: app.Name, Mode: mode, ISA: isaName, Cores: cc})
			}
			for _, sc := range variants {
				r := m.Get(sc)
				if r == nil {
					continue
				}
				tag := "SER-1"
				if sc.Mode != npb.Serial {
					tag = fmt.Sprintf("%s-%d", sc.Mode, sc.Cores)
				}
				fmt.Fprintf(&b, "  %-3s %-6s |%s| %s\n", app.Name, tag, bar(r.Counts, 50), r.Counts)
			}
		}
	}
	panel(npb.MPI, "a")
	panel(npb.OMP, "b")
	// (c): MPI-vs-OMP mismatch for apps that have both.
	fmt.Fprintf(&b, "(c) Mismatch MPI vs OMP (sum of absolute per-class differences, %%)\n")
	ps := pairs(m, isaName)
	if len(ps) == 0 {
		fmt.Fprintf(&b, "  no MPI/OMP pairs\n")
	}
	for _, p := range ps {
		fmt.Fprintf(&b, "  %-3s cores=%d mismatch=%6.2f%%\n", p.app, p.cores, fi.Mismatch(p.mpi.Counts, p.omp.Counts))
	}
	return b.String()
}

// Figure2 is the ARMv7 panel set.
func Figure2(m *Matrix) string { return figure(m, "armv7", "Figure 2") }

// Figure3 is the ARMv8 panel set.
func Figure3(m *Matrix) string { return figure(m, "armv8", "Figure 3") }

// MacroStats reproduces the §4.1.3 narrative: mean branch share and sigma
// for the four macro scenarios.
func MacroStats(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Macro-scenario branch composition (paper: MPI V7 19.24%% / OMP V7 14.08%% / MPI V8 17.65%% / OMP V8 12.01%%)\n")
	for _, g := range branchShares(m) {
		if g.n == 0 {
			fmt.Fprintf(&b, "  %-7s no rows (n=0)\n", g.label)
			continue
		}
		fmt.Fprintf(&b, "  %-7s mean=%6.2f%% sigma=%5.2f (n=%d)\n", g.label, g.mean, g.std, g.n)
	}
	return b.String()
}

// VulnWindow reproduces §4.2.2: masking-rate comparisons between MPI and
// OMP pairs, the per-core balance difference and the runtime-library
// vulnerability window bound. A quantity the matrix has no rows for says so.
func VulnWindow(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Vulnerability window / masking (paper: MPI higher masking in 38 of 44 pairs; API window < 23%%)\n")
	if wins, losses, tied, n := mpiMasksMore(m); n > 0 {
		fmt.Fprintf(&b, "  masking: MPI higher in %d, OMP higher in %d, tied %d of %d comparable pairs\n", wins, losses, tied, n)
	} else {
		fmt.Fprintf(&b, "  no MPI/OMP pairs: no masking comparison\n")
	}
	if w, n := maxAPIWindow(m); n > 0 {
		fmt.Fprintf(&b, "  max parallelization-API vulnerability window: %.1f%%\n", w)
	} else {
		fmt.Fprintf(&b, "  no MPI or OMP scenario: no API window\n")
	}
	mpi, nm := meanImbalance(m, npb.MPI)
	omp, no := meanImbalance(m, npb.OMP)
	if nm > 0 && no > 0 {
		fmt.Fprintf(&b, "  mean per-core instruction imbalance: MPI %.1f%%, OMP %.1f%% (paper: ~4%% vs up to 16%%)\n", mpi, omp)
	} else {
		fmt.Fprintf(&b, "  no multicore MPI and OMP scenarios: no imbalance comparison\n")
	}
	return b.String()
}

// outcomeColumns are the Dataset columns derived from outcome counts, one
// rate per fi.Outcome in order and then the masking share; a feature
// correlation excludes them.
var outcomeColumns = []string{"rate_vanished", "rate_ona", "rate_omm", "rate_ut", "rate_hang", "masking"}

// Dataset assembles the mining table from a matrix (the §3.4 database).
func Dataset(m *Matrix) *mining.DataSet {
	d := mining.NewDataSet()
	for _, sc := range m.Order {
		r := m.Get(sc)
		if r == nil {
			continue
		}
		row := r.Features.Map()
		for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
			row[outcomeColumns[o]] = 100 * r.Counts.Rate(o)
		}
		row["masking"] = 100 * r.Counts.Masking()
		d.AddRow(sc.ID(), row)
	}
	return d
}

// MineReport runs the cross-layer correlation study against the UT and
// Hang rates (the §4 analyses).
func MineReport(m *Matrix) string {
	d := Dataset(m)
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-layer mining: features vs UT rate (paper: memory-instruction share drives UTs)\n")
	fmt.Fprintf(&b, "%s\n", mining.Report(d.Correlate("rate_ut", outcomeColumns...), 6))
	fmt.Fprintf(&b, "Cross-layer mining: features vs Hang rate (paper: calls x branches index tracks Hangs)\n")
	fmt.Fprintf(&b, "%s", mining.Report(d.Correlate("rate_hang", outcomeColumns...), 6))
	return b.String()
}

// trendRow is one Figure 1 data point.
type trendRow struct {
	Year        int
	Transistors float64
	Cores       int
	NodeNM      float64
	Label       string
}

// figure1Data is the embedded historical dataset behind the intro figure.
var figure1Data = []trendRow{
	{1971, 2.3e3, 1, 10000, "Intel 4004"},
	{1978, 2.9e4, 1, 3000, "Intel 8086"},
	{1989, 1.2e6, 1, 1000, "Intel 80486"},
	{1999, 2.2e7, 1, 250, "AMD K7"},
	{2007, 7.9e8, 2, 65, "POWER6"},
	{2010, 1.0e9, 16, 40, "SPARC T3"},
	{2015, 1.0e10, 32, 20, "SPARC M7"},
	{2017, 7.2e9, 48, 14, "Xeon E7-8894"},
	{2017, 4.8e9, 8, 14, "Ryzen"},
	{2018, 6.9e9, 64, 10, "10nm-class"},
}

// Figure1 renders the processor-evolution trends (intro figure).
func Figure1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: processor evolution 1970-2018 (embedded dataset)\n")
	fmt.Fprintf(&b, "%-6s %-14s %14s %6s %8s\n", "Year", "Processor", "Transistors", "Cores", "Node(nm)")
	rows := append([]trendRow(nil), figure1Data...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Year < rows[j].Year })
	for _, r := range rows {
		logT := 0
		for t := r.Transistors; t >= 10; t /= 10 {
			logT++
		}
		fmt.Fprintf(&b, "%-6d %-14s %14.2g %6d %8.0f |%s\n",
			r.Year, r.Label, r.Transistors, r.Cores, r.NodeNM, strings.Repeat("#", logT))
	}
	fmt.Fprintf(&b, "(bar length = log10 of transistor count)\n")
	return b.String()
}
