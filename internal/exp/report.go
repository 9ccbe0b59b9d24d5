package exp

import (
	"fmt"
	"strings"
	"time"

	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// shapeCheck is one paper-vs-measured claim evaluated on the matrix.
type shapeCheck struct {
	ID       string
	Claim    string
	Measured string
	Holds    bool
}

// checks evaluates the paper's qualitative findings against the matrix.
func checks(m *Matrix) []shapeCheck {
	var out []shapeCheck
	add := func(id, claim, measured string, holds bool) {
		out = append(out, shapeCheck{id, claim, measured, holds})
	}
	// The paper's own claims are evaluated on its fault model: the
	// register-domain rows. Cross-domain checks select explicitly.
	regRows := m.filter(func(npb.Scenario) bool { return true })

	// Table 1 shape: v7 executes far more instructions than v8.
	var s7, s8 float64
	var n7, n8 int
	for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.ISA == "armv7" }) {
		s7 += float64(r.Golden.Retired)
		n7++
	}
	for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.ISA == "armv8" }) {
		s8 += float64(r.Golden.Retired)
		n8++
	}
	ratio := 0.0
	if n7 > 0 && n8 > 0 && s8 > 0 {
		ratio = (s7 / float64(n7)) / (s8 / float64(n8))
	}
	add("T1", "ARMv7 executes many times more instructions than ARMv8 (paper avg ~25x, from software FP)",
		fmt.Sprintf("measured average ratio %.1fx", ratio), ratio > 3)

	// §4.1.3 shape: branch share higher under MPI than OMP on both ISAs.
	d := Dataset(m)
	group := func(isa, mode string) float64 {
		mean, _, _ := d.MeanStd("branch_pct", func(name string) bool {
			return strings.HasPrefix(name, isa) && strings.Contains(name, mode)
		})
		return mean
	}
	b7m, b7o := group("armv7", "MPI"), group("armv7", "OMP")
	b8m, b8o := group("armv8", "MPI"), group("armv8", "OMP")
	add("S413", "mean branch share: MPI above OMP on both ISAs (paper 19.2/14.1 on v7, 17.7/12.0 on v8)",
		fmt.Sprintf("v7 %.1f%%/%.1f%%, v8 %.1f%%/%.1f%%", b7m, b7o, b8m, b8o),
		b7m > b7o && b8m > b8o)

	// Table 2 shape: IS Hang rate and the F*B index rise together with
	// core count in the MPI macro scenarios.
	fbMono := func(mode npb.Mode, isa string) bool {
		var fb []float64
		for _, cores := range []int{1, 2, 4} {
			r := m.Get(npb.Scenario{App: "IS", Mode: mode, ISA: isa, Cores: cores})
			if r == nil {
				return false
			}
			fb = append(fb, r.Features.FBIndex)
		}
		return fb[2] > fb[0]
	}
	add("T2", "the function-calls x branches index grows with MPI core count (IS case study)",
		fmt.Sprintf("v7 growth=%v v8 growth=%v", fbMono(npb.MPI, "armv7"), fbMono(npb.MPI, "armv8")),
		fbMono(npb.MPI, "armv7") && fbMono(npb.MPI, "armv8"))

	// Tables 3/4 shape: memory-instruction share correlates with UT rate.
	corrs := d.Correlate("rate_ut", "rate_vanished", "rate_ona", "rate_omm", "rate_hang", "masking")
	var memCorr float64
	for _, c := range corrs {
		if c.Feature == "mem_pct" {
			memCorr = c.Spearman
		}
	}
	add("T3/T4", "memory-transaction share correlates positively with UT occurrence",
		fmt.Sprintf("Spearman(mem_pct, UT rate) = %.2f over %d scenarios", memCorr, len(m.Order)),
		memCorr > 0)

	// §4.2.2 shape: MPI maskings beat OMP in most pairs.
	pairs, wins := 0, 0
	for _, isaName := range []string{"armv7", "armv8"} {
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
				if a == nil || o == nil {
					continue
				}
				pairs++
				if a.Counts.Masking() >= o.Counts.Masking() {
					wins++
				}
			}
		}
	}
	add("S422a", "MPI shows the higher masking rate in most MPI/OMP pairs (paper: 38 of 44)",
		fmt.Sprintf("MPI wins %d of %d", wins, pairs), pairs > 0 && wins*2 > pairs)

	// §4.2.2 shape: MPI balances instructions across cores better.
	var mi, oi []float64
	for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.Mode == npb.MPI && sc.Cores > 1 }) {
		mi = append(mi, r.Features.CoreImbalance)
	}
	for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.Mode == npb.OMP && sc.Cores > 1 }) {
		oi = append(oi, r.Features.CoreImbalance)
	}
	avg := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	add("S422b", "MPI distributes instructions across cores more evenly than OMP (paper ~4% vs up to 16%)",
		fmt.Sprintf("mean imbalance MPI %.1f%% vs OMP %.1f%%", avg(mi), avg(oi)),
		len(mi) > 0 && len(oi) > 0 && avg(mi) < avg(oi))

	// §4.2.2 shape: vulnerability window of the API stays bounded.
	maxWin := 0.0
	for _, r := range regRows {
		if r.Features.APIWindow > maxWin {
			maxWin = r.Features.APIWindow
		}
	}
	add("S422c", "the parallelization API's vulnerability window stays limited (paper: < 23% worst case)",
		fmt.Sprintf("max window %.1f%%", maxWin), maxWin < 60)

	// Masking dominance: most uniform faults are masked (paper figures
	// show Vanished as the largest class almost everywhere).
	dominated := 0
	total := 0
	for _, r := range regRows {
		total++
		if r.Counts.Rate(fi.Vanished)+r.Counts.Rate(fi.ONA) > 0.4 {
			dominated++
		}
	}
	add("F2/F3", "masked outcomes (Vanished+ONA) form the largest share in most scenarios",
		fmt.Sprintf("masking > 40%% in %d of %d scenarios", dominated, total),
		total > 0 && dominated*3 > total*2)

	// Cross-domain shape (DomainTable): faults landing in memory behave
	// qualitatively differently from register faults (Cho et al.). Two
	// invariants of the model: a corrupted instruction word persists in
	// read-only text, so IMem faults can never be classified Vanished; and
	// uniform data-word strikes land mostly in dead memory, so the Mem
	// domain masks at least as much as the register file.
	if m.HasDomain(fault.IMem) || m.HasDomain(fault.Mem) {
		domainCounts := func(d fault.Model) fi.Counts {
			var agg fi.Counts
			for _, sc := range m.Order {
				if r := m.GetDomain(sc, d); r != nil {
					for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
						agg[o] += r.Counts[o]
					}
				}
			}
			return agg
		}
		if m.HasDomain(fault.IMem) {
			im := domainCounts(fault.IMem)
			add("D1", "instruction-word faults never Vanish (the corrupted word persists in read-only text)",
				fmt.Sprintf("IMem Vanished = %d of %d runs", im[fi.Vanished], im.Total()),
				im.Total() > 0 && im[fi.Vanished] == 0)
		}
		// D2 compares against register campaigns, so it is only evaluable
		// when the matrix ran both domains.
		if m.HasDomain(fault.Mem) && m.HasDomain(fault.Reg) {
			mc, rc := domainCounts(fault.Mem), domainCounts(fault.Reg)
			add("D2", "uniform data-word strikes mask at least as often as register strikes (most RAM words are dead)",
				fmt.Sprintf("Mem masking %.1f%% vs Reg %.1f%%", 100*mc.Masking(), 100*rc.Masking()),
				mc.Total() > 0 && rc.Total() > 0 && mc.Masking() >= rc.Masking())
		}
	}
	return out
}

// propTraced reports whether any campaign in the matrix carries a
// propagation fold (the report only prints PropTable for traced runs).
func propTraced(m *Matrix) bool {
	for _, r := range m.Results {
		if r.Prop != nil {
			return true
		}
	}
	return false
}

// Report assembles the complete EXPERIMENTS.md content.
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
	fmt.Fprintf(&b, "- total wall time: %v\n\n", elapsed.Round(time.Second))

	fmt.Fprintf(&b, "## Shape checks (who wins / how it moves)\n\n")
	fmt.Fprintf(&b, "| id | paper claim | measured | holds |\n|---|---|---|---|\n")
	for _, c := range checks(m) {
		mark := "yes"
		if !c.Holds {
			mark = "NO"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.ID, c.Claim, c.Measured, mark)
	}
	section := func(title, body string) {
		fmt.Fprintf(&b, "\n## %s\n\n```\n%s```\n", title, body)
	}
	section("Figure 1 (intro trends)", Figure1())
	section("Table 1 (workload summary)", Table1(m))
	section("Table 2 (Hang vs F*B index, IS)", Table2(m))
	section("Table 3 (ARMv7 memory transactions)", Table3(m))
	section("Table 4 (ARMv8 memory transactions)", Table4(m))
	section("Domain Table (outcome distribution by fault domain)", DomainTable(m))
	if propTraced(m) {
		section("Propagation Table (escape class and latency by fault domain)", PropTable(m))
	}
	section("Figure 2 (ARMv7 distributions + mismatch)", Figure2(m))
	section("Figure 3 (ARMv8 distributions + mismatch)", Figure3(m))
	section("Section 4.1.3 macro statistics", MacroStats(m))
	section("Section 4.2.2 vulnerability window", VulnWindow(m))
	section("Cross-layer mining (Section 3.4)", MineReport(m))
	return b.String()
}
