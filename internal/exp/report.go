package exp

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// shapeCheck is one paper-vs-measured claim evaluated on the matrix.
type shapeCheck struct {
	ID       string
	Claim    string
	Measured string
	Verdict  string // "yes", "NO", "undetermined", or "no data" when the matrix lacks its scenarios
}

// yesNo is the verdict of a check that holds or fails outright.
func yesNo(holds bool) string {
	if holds {
		return "yes"
	}
	return "NO"
}

// checks evaluates the paper's qualitative findings against the matrix,
// each from the quantity the artefact that prints it reads.
func checks(m *Matrix) []shapeCheck {
	var out []shapeCheck
	// add records a check's verdict over the rows its quantities read: with
	// none, the verdict is "no data" and the measured column "-", never a
	// zero or NaN.
	add := func(id, claim string, rows int, verdict, measured string, args ...any) {
		c := shapeCheck{ID: id, Claim: claim, Measured: "-", Verdict: "no data"}
		if rows > 0 {
			c.Measured, c.Verdict = fmt.Sprintf(measured, args...), verdict
		}
		out = append(out, c)
	}

	ratio, n := instrRatio(m)
	add("T1", "ARMv7 executes many times more instructions than ARMv8 (paper avg ~25x, from software FP)",
		n, yesNo(ratio > 3), "measured average ratio %.1fx", ratio)

	b := branchShares(m) // MPI V7, OMP V7, MPI V8, OMP V8
	add("S413", "mean branch share: MPI above OMP on both ISAs (paper 19.2/14.1 on v7, 17.7/12.0 on v8)",
		min(b[0].n, b[1].n, b[2].n, b[3].n), yesNo(b[0].mean > b[1].mean && b[2].mean > b[3].mean),
		"v7 %.1f%%/%.1f%%, v8 %.1f%%/%.1f%%", b[0].mean, b[1].mean, b[2].mean, b[3].mean)

	// Table 2 shape: the F*B index rises from one to four cores in the IS
	// MPI groups, so it reads each group's 1- and 4-core rows.
	g7, _ := isGroup(m, npb.MPI, "armv7")
	g8, _ := isGroup(m, npb.MPI, "armv8")
	grows := func(g [3]*campaign.Result) bool {
		return g[0] != nil && g[2] != nil && g[2].Features.FBIndex > g[0].Features.FBIndex
	}
	ends := 0
	if g7[0] != nil && g7[2] != nil && g8[0] != nil && g8[2] != nil {
		ends = 4
	}
	add("T2", "the function-calls x branches index grows with MPI core count (IS case study)",
		ends, yesNo(grows(g7) && grows(g8)), "v7 growth=%v v8 growth=%v", grows(g7), grows(g8))

	// Tables 3/4 shape: a Spearman coefficient needs three rows and two
	// non-constant columns.
	memCorr, n := math.NaN(), 0
	for _, c := range Dataset(m).Correlate("rate_ut", outcomeColumns...) {
		if c.Feature == "mem_pct" && !math.IsNaN(c.Spearman) {
			memCorr, n = c.Spearman, c.N
		}
	}
	add("T3/T4", "memory-transaction share correlates positively with UT occurrence",
		n, yesNo(memCorr > 0), "Spearman(mem_pct, UT rate) = %.2f over %d scenarios", memCorr, n)

	// Strict wins and losses decide, a tie counts for neither, and a split
	// the sign test cannot tell from coin flips decides nothing.
	wins, losses, tied, n := mpiMasksMore(m)
	p, verdict := signTest(wins, losses)
	add("S422a", "MPI shows the higher masking rate in most MPI/OMP pairs (paper: 38 of 44)",
		n, verdict, "MPI higher in %d, OMP higher in %d, tied %d of %d (sign test p = %.3g)", wins, losses, tied, n, p)

	mi, nm := meanImbalance(m, npb.MPI)
	oi, no := meanImbalance(m, npb.OMP)
	add("S422b", "MPI distributes instructions across cores more evenly than OMP (paper ~4% vs up to 16%)",
		min(nm, no), yesNo(mi < oi), "mean imbalance MPI %.1f%% vs OMP %.1f%%", mi, oi)

	w, n := maxAPIWindow(m)
	add("S422c", "the parallelization API's vulnerability window stays limited (paper: < 23% worst case)",
		n, yesNo(w < 60), "max window %.1f%%", w)

	// Masking dominance on the paper's fault model, the register-domain
	// rows: most uniform faults are masked (paper figures show Vanished as
	// the largest class almost everywhere).
	all := func(npb.Scenario) bool { return true }
	regRows := m.filter(all)
	dominated := 0
	for _, r := range regRows {
		if r.Counts.Rate(fi.Vanished)+r.Counts.Rate(fi.ONA) > 0.4 {
			dominated++
		}
	}
	add("F2/F3", "masked outcomes (Vanished+ONA) form the largest share in most scenarios",
		len(regRows), yesNo(dominated*3 > len(regRows)*2), "masking > 40%% in %d of %d scenarios", dominated, len(regRows))

	// Cross-domain shape (DomainTable): faults landing in memory behave
	// qualitatively differently from register faults (Cho et al.). Two
	// invariants of the model: a corrupted instruction word persists in
	// read-only text, so IMem faults can never be classified Vanished; and
	// uniform data-word strikes land mostly in dead memory, so the Mem
	// domain masks at least as much as the register file. Each shows when
	// the matrix ran its domain; D2 has no data without register runs.
	if m.HasDomain(fault.IMem) {
		im, _ := domainCounts(m, fault.IMem, all)
		add("D1", "instruction-word faults never Vanish (the corrupted word persists in read-only text)",
			im.Total(), yesNo(im[fi.Vanished] == 0), "IMem Vanished = %d of %d runs", im[fi.Vanished], im.Total())
	}
	if m.HasDomain(fault.Mem) {
		mc, _ := domainCounts(m, fault.Mem, all)
		rc, _ := domainCounts(m, fault.Reg, all)
		add("D2", "uniform data-word strikes mask at least as often as register strikes (most RAM words are dead)",
			min(mc.Total(), rc.Total()), yesNo(mc.Masking() >= rc.Masking()),
			"Mem masking %.1f%% vs Reg %.1f%%", 100*mc.Masking(), 100*rc.Masking())
	}
	return out
}

// Artefact is one table, figure or statistic of the paper's evaluation: what
// `serfi experiments -run Name` prints, and one section of the full report.
type Artefact struct {
	Name  string // the -run name
	Title string // its report section; "" leaves it out of the report
	// Scenarios are what a -run of it simulates; none means it renders
	// without rows (Figure 1).
	Scenarios []npb.Scenario
	// AllDomains runs the scenarios under every fault model. Prop traces
	// propagation, and the report prints the artefact only over traced rows.
	AllDomains, Prop bool
	// Format renders the artefact from m (nil for an artefact without
	// scenarios).
	Format func(m *Matrix) string
}

// Artefacts is the catalogue of the paper's artefacts in report order: the
// one list the report, `serfi experiments -run` and the artefact benchmarks
// read. Tables 3 and 4 run the rows they print.
var Artefacts = []Artefact{
	{Name: "fig1", Title: "Figure 1 (intro trends)", Format: func(*Matrix) string { return Figure1() }},
	{Name: "table1", Title: "Table 1 (workload summary)", Scenarios: allScenarios, Format: Table1},
	{Name: "table2", Title: "Table 2 (Hang vs F*B index, IS)", Scenarios: parallelIS, Format: Table2},
	{Name: "table3", Title: "Table 3 (ARMv7 memory transactions)", Scenarios: table3Rows, Format: Table3},
	{Name: "table4", Title: "Table 4 (ARMv8 memory transactions)", Scenarios: table4Rows, Format: Table4},
	{Name: "domains", Title: "Domain Table (outcome distribution by fault domain)", Scenarios: onIS, AllDomains: true, Format: DomainTable},
	{Name: "prop", Title: "Propagation Table (escape class and latency by fault domain)", Scenarios: onIS, Prop: true, Format: PropTable},
	{Name: "sens", Scenarios: onIS, Format: SensTable},
	{Name: "fig2", Title: "Figure 2 (ARMv7 distributions + mismatch)", Scenarios: onV7, Format: Figure2},
	{Name: "fig3", Title: "Figure 3 (ARMv8 distributions + mismatch)", Scenarios: onV8, Format: Figure3},
	{Name: "macro", Title: "Section 4.1.3 macro statistics", Scenarios: allScenarios, Format: MacroStats},
	{Name: "vulnwindow", Title: "Section 4.2.2 vulnerability window", Scenarios: allScenarios, Format: VulnWindow},
	{Name: "mine", Title: "Cross-layer mining (Section 3.4)", Scenarios: allScenarios, Format: MineReport},
}

// The scenario sets the catalogue runs besides the rows of Tables 3 and 4.
// IS is the paper's own case-study workload.
var (
	allScenarios = npb.Scenarios()
	onIS         = catalog(func(sc npb.Scenario) bool { return sc.App == "IS" })
	parallelIS   = catalog(func(sc npb.Scenario) bool { return sc.App == "IS" && sc.Mode != npb.Serial })
	onV7         = catalog(func(sc npb.Scenario) bool { return sc.ISA == "armv7" })
	onV8         = catalog(func(sc npb.Scenario) bool { return sc.ISA == "armv8" })
)

// catalog lists the npb scenarios keep admits, in catalog order.
func catalog(keep func(npb.Scenario) bool) []npb.Scenario {
	return slices.DeleteFunc(npb.Scenarios(), func(sc npb.Scenario) bool { return !keep(sc) })
}

// propTraced reports whether any campaign in the matrix carries a
// propagation fold.
func propTraced(m *Matrix) bool {
	for _, r := range m.Results {
		if r.Prop != nil {
			return true
		}
	}
	return false
}

// Report assembles the complete EXPERIMENTS.md content: the run's scale,
// the shape checks, then every titled artefact in catalogue order.
func Report(m *Matrix, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Experiments: paper vs. measured\n\n")
	fmt.Fprintf(&b, "Reproduction of \"Extensive Evaluation of Programming Models and ISAs Impact on\n")
	fmt.Fprintf(&b, "Multicore Soft Error Reliability\" (DAC 2018) on the serfi simulator.\n\n")
	fmt.Fprintf(&b, "- scenarios: %d (the paper's 130)\n", len(m.Order))
	doms := make([]string, len(m.Domains))
	for i, d := range m.Domains {
		doms[i] = d.String()
	}
	fmt.Fprintf(&b, "- fault domains: %s (the paper evaluates reg; see the Domain Table for the rest)\n",
		strings.Join(doms, ", "))
	fmt.Fprintf(&b, "- faults per scenario: %d (paper: 8000 per scenario on a 5000-core cluster;\n", m.Faults)
	fmt.Fprintf(&b, "  scale with `serfi experiments -n`)\n")
	fmt.Fprintf(&b, "- base seed: %d\n", m.Seed)
	if elapsed > 0 {
		fmt.Fprintf(&b, "- total wall time: %.1fs\n\n", elapsed.Seconds())
	} else {
		fmt.Fprintf(&b, "- total wall time: not recorded (these rows were read back from a database, which stores no host wall clock)\n\n")
	}

	fmt.Fprintf(&b, "## Shape checks (who wins / how it moves)\n\n")
	fmt.Fprintf(&b, "| id | paper claim | measured | holds |\n|---|---|---|---|\n")
	for _, c := range checks(m) {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.ID, c.Claim, c.Measured, c.Verdict)
	}
	for _, a := range Artefacts {
		if a.Title == "" || a.Prop && !propTraced(m) {
			continue
		}
		fmt.Fprintf(&b, "\n## %s\n\n```\n%s```\n", a.Title, a.Format(m))
	}
	return b.String()
}
