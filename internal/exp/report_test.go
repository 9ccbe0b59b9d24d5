package exp

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// row hand-builds a four-fault campaign row of scenario id under domain d:
// out of its four runs, masked are Vanished and the rest UT, and set fills
// in what a check reads.
func row(t *testing.T, id string, d fault.Model, masked int, set func(*campaign.Result)) *campaign.Result {
	t.Helper()
	sc, err := npb.ParseID(id)
	if err != nil {
		t.Fatal(err)
	}
	r := &campaign.Result{Scenario: sc, Domain: d, Faults: 4}
	r.Counts[fi.Vanished], r.Counts[fi.UT] = masked, 4-masked
	if set != nil {
		set(r)
	}
	return r
}

// TestShapeChecks: every shape check, over hand-built rows, reads "yes"
// where the paper's claim holds, "NO" where it fails, "undetermined" where
// its test cannot tell (S422a), and "no data" where the matrix lacks the
// scenarios it compares, and its measured column never prints NaN.
func TestShapeChecks(t *testing.T) {
	reg := func(id string, masked int, set func(*campaign.Result)) *campaign.Result {
		return row(t, id, fault.Reg, masked, set)
	}
	retired := func(n uint64) func(*campaign.Result) {
		return func(r *campaign.Result) { r.Golden.Retired = n }
	}
	branch := func(pct float64) func(*campaign.Result) {
		return func(r *campaign.Result) { r.Features.BranchPct = pct }
	}
	fb := func(v float64) func(*campaign.Result) {
		return func(r *campaign.Result) { r.Features.FBIndex = v }
	}
	mem := func(pct float64) func(*campaign.Result) {
		return func(r *campaign.Result) { r.Features.MemInstrPct = pct }
	}
	imbalance := func(pct float64) func(*campaign.Result) {
		return func(r *campaign.Result) { r.Features.CoreImbalance = pct }
	}
	window := func(pct float64) func(*campaign.Result) {
		return func(r *campaign.Result) { r.Features.APIWindow = pct }
	}
	serial := []*campaign.Result{reg("armv7/IS/SER-1", 4, nil), reg("armv8/IS/SER-1", 4, nil)}
	macro := func(mpi, omp float64) []*campaign.Result {
		return []*campaign.Result{
			reg("armv7/IS/MPI-2", 4, branch(mpi)), reg("armv7/IS/OMP-2", 4, branch(omp)),
			reg("armv8/IS/MPI-2", 4, branch(mpi)), reg("armv8/IS/OMP-2", 4, branch(omp)),
		}
	}
	isMPI := func(f1, f4 float64) []*campaign.Result {
		var rs []*campaign.Result
		for _, isa := range []string{"armv7", "armv8"} {
			rs = append(rs, reg(isa+"/IS/MPI-1", 4, fb(f1)), reg(isa+"/IS/MPI-2", 4, fb(f1)), reg(isa+"/IS/MPI-4", 4, fb(f4)))
		}
		return rs
	}
	// Three serial rows whose UT count (4 - masked) follows ut.
	memUT := func(ut ...int) []*campaign.Result {
		var rs []*campaign.Result
		for i, app := range []string{"CG", "EP", "IS"} {
			rs = append(rs, reg("armv8/"+app+"/SER-1", 4-ut[i], mem(float64(10*(i+1)))))
		}
		return rs
	}
	// pair builds MPI/OMP row pairs in the order pairs() reads them: w in
	// which MPI masks more, then l in which OMP does, then tied ones.
	pair := func(w, l, tied int) []*campaign.Result {
		var rs []*campaign.Result
		for _, isa := range []string{"armv7", "armv8"} {
			for _, app := range npb.Apps() {
				for _, cores := range []int{1, 2, 4} {
					if !app.HasMPI || !app.HasOMP || app.MPISquare && cores == 2 {
						continue
					}
					mpi, omp := 2, 2
					switch {
					case w > 0:
						mpi, w = 4, w-1
					case l > 0:
						omp, l = 4, l-1
					case tied > 0:
						tied--
					default:
						return rs
					}
					id := fmt.Sprintf("%s/%s/%%s-%d", isa, app.Name, cores)
					rs = append(rs, reg(fmt.Sprintf(id, "MPI"), mpi, nil), reg(fmt.Sprintf(id, "OMP"), omp, nil))
				}
			}
		}
		if w+l+tied > 0 {
			t.Fatalf("the matrix holds %d pairs fewer than asked for", w+l+tied)
		}
		return rs
	}
	balance := func(mpi, omp float64, cores string) []*campaign.Result {
		return []*campaign.Result{reg("armv8/IS/MPI-"+cores, 4, imbalance(mpi)), reg("armv8/IS/OMP-"+cores, 4, imbalance(omp))}
	}
	imem := func(vanished, faults int) []*campaign.Result {
		r := row(t, "armv8/IS/SER-1", fault.IMem, vanished, nil)
		r.Faults, r.Counts[fi.UT] = faults, faults-vanished
		return []*campaign.Result{r}
	}
	memReg := func(memMasked, regMasked int) []*campaign.Result {
		return []*campaign.Result{row(t, "armv8/IS/SER-1", fault.Mem, memMasked, nil), reg("armv8/IS/SER-1", regMasked, nil)}
	}

	for _, tc := range []struct {
		id, name string
		rows     []*campaign.Result
		want     string
	}{
		{"T1", "v7 10x v8", []*campaign.Result{reg("armv7/IS/SER-1", 4, retired(1000)), reg("armv8/IS/SER-1", 4, retired(100))}, "yes"},
		{"T1", "v7 = v8", []*campaign.Result{reg("armv7/IS/SER-1", 4, retired(100)), reg("armv8/IS/SER-1", 4, retired(100))}, "NO"},
		{"T1", "armv8 alone", []*campaign.Result{reg("armv8/IS/SER-1", 4, retired(100))}, "no data"},

		{"S413", "MPI branches more", macro(20, 10), "yes"},
		{"S413", "OMP branches more", macro(10, 20), "NO"},
		{"S413", "serial only", serial, "no data"},

		{"T2", "F*B grows", isMPI(1, 3), "yes"},
		{"T2", "F*B shrinks", isMPI(3, 1), "NO"},
		{"T2", "serial only", serial, "no data"},
		{"T2", "no 4-core row", slices.DeleteFunc(isMPI(1, 3), func(r *campaign.Result) bool { return r.Scenario.Cores == 4 }), "no data"},

		{"T3/T4", "UT rises with mem_pct", memUT(0, 1, 2), "yes"},
		{"T3/T4", "UT falls with mem_pct", memUT(2, 1, 0), "NO"},
		{"T3/T4", "two rows", memUT(0, 1, 2)[:2], "no data"},
		{"T3/T4", "constant UT", memUT(1, 1, 1), "no data"},

		{"S422a", "MPI masks more", pair(5, 0, 0), "yes"},
		{"S422a", "OMP masks more", pair(0, 5, 0), "NO"},
		{"S422a", "one pair", pair(1, 0, 0), "undetermined"},
		{"S422a", "all tied", pair(0, 0, 4), "undetermined"},
		{"S422a", "21-21 with 2 tied", pair(21, 21, 2), "undetermined"},
		{"S422a", "serial only", serial, "no data"},

		{"S422b", "MPI balanced", balance(5, 15, "2"), "yes"},
		{"S422b", "OMP balanced", balance(15, 5, "2"), "NO"},
		{"S422b", "one core only", balance(5, 15, "1"), "no data"},

		{"S422c", "small window", []*campaign.Result{reg("armv8/IS/OMP-2", 4, window(5))}, "yes"},
		{"S422c", "large window", []*campaign.Result{reg("armv8/IS/OMP-2", 4, window(70))}, "NO"},
		{"S422c", "serial only", serial, "no data"},

		{"F2/F3", "masked", serial, "yes"},
		{"F2/F3", "all UT", []*campaign.Result{reg("armv7/IS/SER-1", 0, nil), reg("armv8/IS/SER-1", 0, nil)}, "NO"},
		{"F2/F3", "mem domain only", []*campaign.Result{row(t, "armv8/IS/SER-1", fault.Mem, 4, nil)}, "no data"},

		{"D1", "IMem never vanishes", imem(0, 4), "yes"},
		{"D1", "IMem vanishes", imem(1, 4), "NO"},
		{"D1", "IMem without runs", imem(0, 0), "no data"},

		{"D2", "Mem masks more", memReg(4, 2), "yes"},
		{"D2", "Reg masks more", memReg(2, 4), "NO"},
		{"D2", "no reg rows", memReg(4, 2)[:1], "no data"},
	} {
		t.Run(tc.id+"/"+tc.name, func(t *testing.T) {
			for _, c := range checks(NewMatrix(tc.rows)) {
				if c.ID != tc.id {
					continue
				}
				if c.Verdict != tc.want {
					t.Errorf("verdict %q (measured %q), want %q", c.Verdict, c.Measured, tc.want)
				}
				if strings.Contains(c.Measured, "NaN") {
					t.Errorf("measured column prints NaN: %q", c.Measured)
				}
				return
			}
			t.Fatalf("no %s check in the report", tc.id)
		})
	}
}

// TestSignTest pins S422a's exact one-sided binomial tail against values
// computed by hand.
func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		p            float64
		verdict      string
	}{
		{5, 0, 1.0 / 32, "yes"},
		{0, 5, 1.0 / 32, "NO"},
		{4, 0, 1.0 / 16, "undetermined"},
		{15, 5, 21700.0 / (1 << 20), "yes"}, // sum of C(20, k), k = 15..20
		{21, 21, 0.5 + 538257874440.0/(1<<43), "undetermined"},
		{0, 0, 1, "undetermined"},
	} {
		p, verdict := signTest(tc.wins, tc.losses)
		if math.Abs(p-tc.p) > 1e-9 || verdict != tc.verdict {
			t.Errorf("signTest(%d, %d) = %g, %s; want %g, %s", tc.wins, tc.losses, p, verdict, tc.p, tc.verdict)
		}
	}
}

// TestReportWallTime: a live report prints its wall time to a tenth of a
// second; one formatted from a database, which stores no wall clock, says
// so instead of printing 0s.
func TestReportWallTime(t *testing.T) {
	m := NewMatrix([]*campaign.Result{row(t, "armv8/IS/SER-1", fault.Reg, 4, nil)})
	for _, tc := range []struct {
		elapsed time.Duration
		want    string
	}{
		{300 * time.Millisecond, "- total wall time: 0.3s\n"},
		{0, "- total wall time: not recorded"},
	} {
		if r := Report(m, tc.elapsed); !strings.Contains(r, tc.want) || strings.Contains(r, "total wall time: 0s") {
			t.Errorf("Report(m, %v) lacks %q or prints 0s:\n%s", tc.elapsed, tc.want, r[:strings.Index(r, "## Shape")])
		}
	}
}

// TestArtefactScenariosCoverTheirRows: an artefact that prints chosen
// scenarios prints the same text from the rows its catalogue entry runs as
// from a full matrix, so a -run of it simulates every row it prints. The
// full matrix is hand-built: every scenario of the catalog, each with its
// own counts and features.
func TestArtefactScenariosCoverTheirRows(t *testing.T) {
	var rows []*campaign.Result
	for i, sc := range npb.Scenarios() {
		rows = append(rows, row(t, sc.ID(), fault.Reg, i%5, func(r *campaign.Result) {
			v := float64(i + 1)
			r.Features.FBIndex, r.Features.Branches, r.Features.Calls = v, 10*v, 3*v
			r.Features.MemInstrPct, r.Features.RdWrRatio = v/2, 1+v/100
		}))
	}
	full := NewMatrix(rows)
	for _, name := range []string{"table2", "table3", "table4", "fig2", "fig3"} {
		i := slices.IndexFunc(Artefacts, func(a Artefact) bool { return a.Name == name })
		if i < 0 {
			t.Fatalf("no artefact %s", name)
		}
		a := Artefacts[i]
		var kept []*campaign.Result
		for _, r := range rows {
			if slices.Contains(a.Scenarios, r.Scenario) {
				kept = append(kept, r)
			}
		}
		if want, got := a.Format(full), a.Format(NewMatrix(kept)); got != want {
			t.Errorf("%s over its %d scenarios differs from the full matrix:\n%s\n---\n%s", name, len(kept), got, want)
		}
	}
}
