package exp

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/profile"
)

// runSubset runs the catalog scenarios that pass keep through the campaign
// engine at base seed seed, under opts, and returns their rows.
func runSubset(t *testing.T, seed int64, keep func(npb.Scenario) bool, opts ...campaign.Option) []*campaign.Result {
	t.Helper()
	var scs []npb.Scenario
	for _, sc := range npb.Scenarios() {
		if keep(sc) {
			scs = append(scs, sc)
		}
	}
	eng := campaign.New(opts...)
	results, err := eng.RunMatrix(context.Background(), eng.JobsFor(scs, seed))
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// smallMatrix runs a cheap subset once for all formatting tests.
var cached *Matrix

func smallMatrix(t *testing.T) *Matrix {
	t.Helper()
	if cached != nil {
		return cached
	}
	m := NewMatrix(runSubset(t, 7, func(sc npb.Scenario) bool {
		// IS on armv8 everywhere (cheap); a slice of armv7 IS for the
		// v7 panels; the Table 3/4 scenarios at 1 core.
		if sc.App == "IS" && sc.ISA == "armv8" {
			return true
		}
		if sc.App == "IS" && sc.ISA == "armv7" && sc.Cores == 1 {
			return true
		}
		if sc.Cores != 1 || sc.ISA != "armv8" {
			return sc.App == "MG" && sc.ISA == "armv7" && sc.Mode == npb.MPI && sc.Cores == 1
		}
		switch sc.App {
		case "MG", "LU", "SP", "FT":
			return true
		}
		return false
	}, campaign.Faults(3)))
	cached = m
	return m
}

// TestTable1Renders: over live rows Table 1 prints its time rows. Over the
// same rows written to a database and read back, which carry no wall clock,
// it prints a note in their place, not zeros the run never measured. In both
// every data row's ISA column starts where the header's does.
func TestTable1Renders(t *testing.T) {
	m := smallMatrix(t)
	s := Table1(m)
	for _, want := range []string{"Simulation Time Single Run", "Executed Instructions", "armv7", "armv8"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 1 missing %q:\n%s", want, s)
		}
	}
	var db bytes.Buffer
	if err := campaign.WriteDB(&db, slices.Collect(maps.Values(m.Results))); err != nil {
		t.Fatal(err)
	}
	byKey, err := campaign.ReadDB(&db)
	if err != nil {
		t.Fatal(err)
	}
	read := Table1(NewMatrix(slices.Collect(maps.Values(byKey))))
	for _, want := range []string{"time rows omitted", "Executed Instructions", "executed-instruction ratio"} {
		if !strings.Contains(read, want) {
			t.Errorf("table 1 from a database missing %q:\n%s", want, read)
		}
	}
	for _, bad := range []string{"0.000s", "Simulation Time", "Fault Campaign"} {
		if strings.Contains(read, bad) {
			t.Errorf("table 1 from a database prints %q, which no row measured:\n%s", bad, read)
		}
	}
	// Compute totals under a second print to a tenth, like a single
	// campaign run, not rounded to 0s: one row per ISA, 0.3 s of compute.
	var short []*campaign.Result
	for _, sc := range isSerial() {
		short = append(short, &campaign.Result{Scenario: sc, GoldenWallSec: 0.2, JobWallSec: 0.1})
	}
	totals := Table1(NewMatrix(short))
	for _, isaName := range []string{"armv8", "armv7"} {
		if want := fmt.Sprintf("%-30s %-6s %12s", "Total Fault Campaign (compute)", isaName, "0.3s"); !strings.Contains(totals, want) {
			t.Errorf("table 1 lacks %q:\n%s", want, totals)
		}
	}
	if strings.Contains(totals, " 0s") {
		t.Errorf("table 1 rounds a compute total to 0s:\n%s", totals)
	}
	for _, table := range []string{s, read} {
		lines := strings.Split(table, "\n")
		col := strings.Index(lines[1], "ISA")
		for _, line := range lines[2:] {
			if strings.Contains(line, " armv") && (len(line) < col || !strings.HasPrefix(line[col:], "armv")) {
				t.Errorf("ISA column not at offset %d of the header in %q:\n%s", col, line, table)
			}
		}
	}
}

// isSerial is the IS/SER-1 scenario of each ISA.
func isSerial() []npb.Scenario {
	return []npb.Scenario{
		{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		{App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1},
	}
}

// TestArtefactsInventNothing: over a matrix that holds only IS/SER rows,
// Table 2 (the IS MPI/OMP scenarios) prints no group and no 0.000 cell for
// the scenarios it lacks, and the macro statistics print no NaN. The §4.2.2
// section and the (c) panels of Figures 2 and 3 say they have no MPI/OMP
// pairs, and no artefact or shape check prints NaN, "0 of 0" or a 0.0% it
// never measured, or judges a check it has no rows for "NO". With one
// scenario of a group present, that group prints and its absent cells read
// "-".
func TestArtefactsInventNothing(t *testing.T) {
	var rows []*campaign.Result
	for i, sc := range isSerial() {
		r := &campaign.Result{Scenario: sc, Faults: 4, Features: profile.Features{BranchPct: 12, Branches: 900, Calls: 30, FBIndex: 27000}}
		r.Counts[fi.Vanished] = 4
		r.Golden.Retired = uint64(1+9*i) * 1e6 // armv7 10x armv8: T1 holds
		rows = append(rows, r)
	}
	m := NewMatrix(rows)
	for name, out := range map[string]string{"table 2": Table2(m), "macro": MacroStats(m)} {
		for _, bad := range []string{"NaN", "0.000", "IS MPI", "IS OMP"} {
			if strings.Contains(out, bad) {
				t.Errorf("%s over IS/SER rows alone prints %q:\n%s", name, bad, out)
			}
		}
	}
	if s := MacroStats(m); !strings.Contains(s, "MPI V7  no rows (n=0)") {
		t.Errorf("macro stats does not say MPI V7 has no rows:\n%s", s)
	}
	report := Report(m, time.Second)
	shape := report[strings.Index(report, "## Shape checks"):strings.Index(report, "## Figure 1")]
	for name, out := range map[string]string{
		"vuln window": VulnWindow(m), "figure 2": Figure2(m), "figure 3": Figure3(m),
		"report": report, "shape checks": shape,
	} {
		bad := []string{"NaN", "0 of 0", "| NO |"}
		if name == "vuln window" || name == "shape checks" {
			bad = append(bad, "0.0%") // measured rates of the rows only print in the figures
		}
		for _, b := range bad {
			if strings.Contains(out, b) {
				t.Errorf("%s over IS/SER rows alone prints %q:\n%s", name, b, out)
			}
		}
	}
	for name, s := range map[string]string{"vuln window": VulnWindow(m), "figure 2": Figure2(m), "figure 3": Figure3(m)} {
		if !strings.Contains(s, "no MPI/OMP pairs") {
			t.Errorf("%s does not say it has no MPI/OMP pairs:\n%s", name, s)
		}
	}
	if n := strings.Count(shape, "| no data |"); n != 6 {
		t.Errorf("%d shape checks read no data over IS/SER rows alone, want 6 (all but T1 and F2/F3):\n%s", n, shape)
	}

	mpi := &campaign.Result{Scenario: npb.Scenario{App: "IS", Mode: npb.MPI, ISA: "armv8", Cores: 1}, Faults: 4,
		Features: profile.Features{Branches: 1000, Calls: 40, FBIndex: 40000}}
	mpi.Counts[fi.Vanished], mpi.Counts[fi.Hang] = 3, 1
	s := Table2(NewMatrix(append(rows, mpi)))
	for _, want := range []string{
		fmt.Sprintf("%-12s %-10s %10.3f %10s %10s\n", "IS MPI V8", "Hang (%)", 25.0, "-", "-"),
		fmt.Sprintf("%-12s %-10s %10.3f %10s %10s\n", "", "Index F*B", 1.0, "-", "-"),
	} {
		if !strings.Contains(s, want) {
			t.Errorf("table 2 lacks %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "IS OMP") || strings.Contains(s, "IS MPI V7") {
		t.Errorf("table 2 prints a group with no scenario:\n%s", s)
	}
}

func TestTable2Renders(t *testing.T) {
	s := Table2(smallMatrix(t))
	for _, want := range []string{"IS MPI V7", "IS OMP V8", "Index F*B", "Hang"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 2 missing %q:\n%s", want, s)
		}
	}
}

func TestTables34Render(t *testing.T) {
	m := smallMatrix(t)
	s3 := Table3(m)
	if !strings.Contains(s3, "MG MPIx1") || !strings.Contains(s3, "RD/WR") {
		t.Errorf("table 3:\n%s", s3)
	}
	s4 := Table4(m)
	if !strings.Contains(s4, "LU OMPx1") || !strings.Contains(s4, "FT MPIx1") {
		t.Errorf("table 4:\n%s", s4)
	}
}

func TestFiguresRender(t *testing.T) {
	m := smallMatrix(t)
	f2 := Figure2(m)
	if !strings.Contains(f2, "MPI benchmarks") || !strings.Contains(f2, "Mismatch") {
		t.Errorf("figure 2:\n%s", f2)
	}
	if !strings.Contains(f2, "IS") {
		t.Error("figure 2 missing IS rows")
	}
	f3 := Figure3(m)
	if !strings.Contains(f3, "armv8") {
		t.Errorf("figure 3:\n%s", f3)
	}
}

func TestFigure1Static(t *testing.T) {
	s := Figure1()
	for _, want := range []string{"Intel 4004", "SPARC M7", "Cores", "Node"} {
		if !strings.Contains(s, want) {
			t.Errorf("figure 1 missing %q", want)
		}
	}
}

func TestDatasetAndMining(t *testing.T) {
	m := smallMatrix(t)
	d := Dataset(m)
	if len(d.Rows) != len(m.Order) {
		t.Fatalf("dataset rows = %d, want %d", len(d.Rows), len(m.Order))
	}
	if _, ok := d.Column("rate_ut"); !ok {
		t.Fatal("dataset missing outcome columns")
	}
	if s := MineReport(m); !strings.Contains(s, "spearman") {
		t.Errorf("mining report:\n%s", s)
	}
}

func TestReportAssembles(t *testing.T) {
	m := smallMatrix(t)
	r := Report(m, 3*time.Second)
	for _, want := range []string{
		"# Experiments", "Shape checks", "Table 1", "Table 4",
		"Figure 2", "Figure 3", "vulnerability window", "| id |",
	} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestDomainTableRenders runs a fresh two-ISA subset under all four fault
// domains and checks the register-vs-memory comparison table (the PR's
// acceptance artefact) renders one row per ISA per domain, wired through
// Report.
func TestDomainTableRenders(t *testing.T) {
	m := NewMatrix(runSubset(t, 5, func(sc npb.Scenario) bool {
		return sc.App == "IS" && sc.Mode == npb.Serial
	}, campaign.Faults(2), campaign.Models(fault.Models()...)))
	s := DomainTable(m)
	for _, want := range []string{"armv7", "armv8", "reg", "mem", "imem", "burst", "Masking%"} {
		if !strings.Contains(s, want) {
			t.Errorf("domain table missing %q:\n%s", want, s)
		}
	}
	for _, isaName := range []string{"armv7", "armv8"} {
		if got := strings.Count(s, isaName); got != len(fault.Models()) {
			t.Errorf("domain table has %d %s rows, want %d:\n%s", got, isaName, len(fault.Models()), s)
		}
	}
	// Every row's scen column (five wide, right-aligned) starts where the
	// header's does, whatever the length of the domain's name.
	lines := strings.Split(s, "\n")
	at := strings.Index(lines[1], " scen")
	for _, row := range lines[2:] {
		if !strings.HasPrefix(row, "armv") {
			continue
		}
		if scen := fmt.Sprintf("%5s", strings.Fields(row)[2]); len(row) < at+5 || row[at:at+5] != scen {
			t.Errorf("row %q: scen column %q does not start at the header's offset %d:\n%s", row, scen, at, s)
		}
	}
	// Wiring: the full report includes the table and the cross-domain
	// shape checks evaluated on this matrix.
	r := Report(m, time.Second)
	if !strings.Contains(r, "Domain Table") {
		t.Error("report missing the domain table section")
	}
	for _, id := range []string{"D1", "D2"} {
		if !strings.Contains(r, "| "+id+" |") {
			t.Errorf("report missing cross-domain shape check %s", id)
		}
	}
}

func TestMacroAndVulnRender(t *testing.T) {
	m := smallMatrix(t)
	if s := MacroStats(m); !strings.Contains(s, "MPI V7") {
		t.Errorf("macro stats:\n%s", s)
	}
	if s := VulnWindow(m); !strings.Contains(s, "masking") {
		t.Errorf("vuln window:\n%s", s)
	}
}

func TestPropTableRenders(t *testing.T) {
	m := NewMatrix(runSubset(t, 99, func(sc npb.Scenario) bool {
		return sc.App == "IS" && sc.Mode == npb.Serial && sc.ISA == "armv8"
	}, campaign.Faults(8), campaign.TraceProp(), campaign.Models(fault.Reg, fault.CacheTag)))
	s := PropTable(m)
	for _, want := range []string{"Propagation Table", "traced", "xcore%", "med(inst)", "timing", "kernel"} {
		if !strings.Contains(s, want) {
			t.Errorf("prop table missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "no propagation traces recorded") {
		t.Errorf("traced matrix rendered the empty-table notice:\n%s", s)
	}
	// The report only ships the section when the matrix was traced.
	if r := Report(m, time.Second); !strings.Contains(r, "Propagation Table") {
		t.Error("report missing the propagation table section")
	}
	if r := Report(smallMatrix(t), time.Second); strings.Contains(r, "Propagation Table") {
		t.Error("untraced report grew a propagation table section")
	}
}

// TestMatrixFromRowsMatchesLive: a run's report is the report of its rows.
// A traced, recorded reg+mem run streams into a FileStore; the matrix built
// from the live results and the one built from the reopened store must
// render every stored-column artefact byte for byte alike and report the
// same scale — the live, -join and -from paths of `serfi experiments` all
// format through NewMatrix.
func TestMatrixFromRowsMatchesLive(t *testing.T) {
	path := t.TempDir() + "/rows.jsonl"
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	live := NewMatrix(runSubset(t, 7, func(sc npb.Scenario) bool {
		return sc.App == "IS" && sc.Cores == 1
	}, campaign.Faults(4), campaign.Models(fault.Reg, fault.Mem), campaign.TraceProp(),
		campaign.WithStore(st)))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	stored := NewMatrix(reopened.Query(campaign.Query{}))

	if live.Faults != 4 || live.Seed != 7 || stored.Faults != live.Faults || stored.Seed != live.Seed {
		t.Errorf("scale: live %d faults seed %d, stored %d faults seed %d, want 4 and 7",
			live.Faults, live.Seed, stored.Faults, stored.Seed)
	}
	if len(live.Order) != 6 || len(live.Domains) != 2 {
		t.Fatalf("live matrix has %d scenarios x %d domains, want 6 x 2", len(live.Order), len(live.Domains))
	}
	for _, a := range []struct {
		name   string
		format func(*Matrix) string
	}{
		{"Table2", Table2}, {"Table3", Table3}, {"Table4", Table4},
		{"DomainTable", DomainTable}, {"PropTable", PropTable}, {"SensTable", SensTable},
		{"MacroStats", MacroStats}, {"VulnWindow", VulnWindow}, {"MineReport", MineReport},
	} {
		if got, want := a.format(stored), a.format(live); got != want {
			t.Errorf("%s from the reopened store differs from the live run:\n--- stored\n%s--- live\n%s", a.name, got, want)
		}
	}
	if s := SensTable(stored); strings.Contains(s, "no recorded per-fault rows") {
		t.Errorf("recorded matrix rendered the empty sensitivity notice:\n%s", s)
	}
}
