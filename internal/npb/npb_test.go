package npb

import (
	"fmt"
	"math"
	"testing"

	"serfi/internal/cc"
	"serfi/internal/mach"
	"serfi/internal/stack"
)

// run is a scenario executed to halt: its image and the halted machine.
type run struct {
	Img *cc.Image
	M   *mach.Machine
}

// runScenario boots and runs one scenario to halt, returning the machine.
func runScenario(t *testing.T, sc Scenario) (*mach.Machine, *run) {
	t.Helper()
	img, cfg, err := BuildScenario(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.ID(), err)
	}
	r := &run{Img: img, M: stack.NewMachine(cfg, img)}
	if stop := r.M.Run(20_000_000_000); stop != mach.StopHalted {
		t.Fatalf("%s: stopped %v (pc=%#x retired=%d)", sc.ID(), stop,
			r.M.Cores[0].PC, r.M.TotalRetired)
	}
	if r.M.ExitCode != 0 {
		t.Fatalf("%s: guest exit code %d (signal %d)", sc.ID(), r.M.ExitCode, r.M.AppSignal)
	}
	return r.M, r
}

func results(t *testing.T, r *run) []uint64 {
	t.Helper()
	out := make([]uint64, ResultWords)
	for i := range out {
		v, err := r.Img.WordAt(r.M, "__result", uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func resultF(t *testing.T, r *run, idx uint32) float64 {
	t.Helper()
	bits, err := r.Img.F64At(r.M, "__resultf", idx)
	if err != nil {
		t.Fatal(err)
	}
	return math.Float64frombits(bits)
}

// checkModesAgree runs every available variant of an app on one ISA and
// demands identical integer checksums (exact) and close FP results.
func checkModesAgree(t *testing.T, appName, isaName string, exactWords int) {
	app, ok := AppByName(appName)
	if !ok {
		t.Fatalf("unknown app %s", appName)
	}
	type variant struct {
		sc Scenario
	}
	var vs []variant
	if app.HasSerial {
		vs = append(vs, variant{Scenario{appName, Serial, isaName, 1}})
	}
	if app.HasOMP {
		vs = append(vs, variant{Scenario{appName, OMP, isaName, 2}})
		vs = append(vs, variant{Scenario{appName, OMP, isaName, 4}})
	}
	if app.HasMPI {
		vs = append(vs, variant{Scenario{appName, MPI, isaName, 1}})
		if !app.MPISquare {
			vs = append(vs, variant{Scenario{appName, MPI, isaName, 2}})
		}
		vs = append(vs, variant{Scenario{appName, MPI, isaName, 4}})
	}
	var ref []uint64
	var refF float64
	var refID string
	for _, v := range vs {
		_, r := runScenario(t, v.sc)
		res := results(t, r)
		fv := resultF(t, r, 0)
		if ref == nil {
			ref, refF, refID = res, fv, v.sc.ID()
			continue
		}
		for i := 0; i < exactWords; i++ {
			if res[i] != ref[i] {
				t.Errorf("%s result[%d] = %#x, want %#x (ref %s)",
					v.sc.ID(), i, res[i], ref[i], refID)
			}
		}
		if refF != 0 || fv != 0 {
			rel := math.Abs(fv-refF) / math.Max(math.Abs(refF), 1e-30)
			if rel > 1e-9 {
				t.Errorf("%s fp result = %g, want ~%g (ref %s)", v.sc.ID(), fv, refF, refID)
			}
		}
	}
}

func TestISModesAgree(t *testing.T) {
	checkModesAgree(t, "IS", "armv8", 3)
}

func TestISArmv7MatchesArmv8(t *testing.T) {
	// Integer-only app: the two ISAs must compute identical checksums.
	_, r7 := runScenario(t, Scenario{"IS", Serial, "armv7", 1})
	_, r8 := runScenario(t, Scenario{"IS", Serial, "armv8", 1})
	a, b := results(t, r7), results(t, r8)
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			t.Errorf("result[%d]: armv7 %#x vs armv8 %#x", i, a[i], b[i])
		}
	}
}

func TestEPModesAgree(t *testing.T) {
	checkModesAgree(t, "EP", "armv8", 2)
}

func TestEPCrossISA(t *testing.T) {
	// Counts are integer checksums of FP comparisons; our soft-float is
	// bit-exact in the normal range, so they must agree across ISAs.
	_, r7 := runScenario(t, Scenario{"EP", Serial, "armv7", 1})
	_, r8 := runScenario(t, Scenario{"EP", Serial, "armv8", 1})
	a, b := results(t, r7), results(t, r8)
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("EP counts differ across ISAs: %#x/%#x vs %#x/%#x", a[0], a[1], b[0], b[1])
	}
	if a[0] == 0 {
		t.Error("EP counted nothing")
	}
}

func TestCGModesAgree(t *testing.T) {
	checkModesAgree(t, "CG", "armv8", 1)
}

func TestCGConverges(t *testing.T) {
	_, r := runScenario(t, Scenario{"CG", Serial, "armv8", 1})
	rho := resultF(t, r, 0)
	if !(rho >= 0) || rho > 1.0 {
		t.Errorf("final residual rho = %g, expected small positive", rho)
	}
	x7 := resultF(t, r, 1)
	if x7 == 0 {
		t.Error("solution stayed zero")
	}
}

func TestMGModesAgree(t *testing.T) {
	// Jacobi smoothing is partition-invariant: exact agreement.
	checkModesAgree(t, "MG", "armv8", 1)
}

func TestMGConvergesTowardSolution(t *testing.T) {
	_, r := runScenario(t, Scenario{"MG", Serial, "armv8", 1})
	center := resultF(t, r, 0)
	if center == 0 {
		t.Error("MG solution stayed zero")
	}
}

func TestLUModesAgree(t *testing.T) {
	// Red-black ordering is partition-invariant: exact agreement.
	checkModesAgree(t, "LU", "armv8", 1)
}

func TestSPModesAgree(t *testing.T) {
	// Line solves are independent: exact agreement.
	checkModesAgree(t, "SP", "armv8", 1)
}

func TestScenarioCountIs130(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 130 {
		t.Fatalf("scenario count = %d, want 130 (paper §3.3.2)", len(scs))
	}
	perISA := map[string]int{}
	for _, s := range scs {
		perISA[s.ISA]++
		if s.Mode == Serial && s.Cores != 1 {
			t.Errorf("serial scenario with %d cores", s.Cores)
		}
	}
	if perISA["armv7"] != 65 || perISA["armv8"] != 65 {
		t.Errorf("per-ISA split = %v, want 65/65", perISA)
	}
	// The paper's table: BT and SP have no MPI dual-core variant.
	for _, s := range scs {
		if s.Mode == MPI && s.Cores == 2 && (s.App == "BT" || s.App == "SP") {
			t.Errorf("unexpected scenario %s", s.ID())
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	sc := Scenario{"IS", OMP, "armv8", 2}
	_, r1 := runScenario(t, sc)
	_, r2 := runScenario(t, sc)
	if r1.M.TotalRetired != r2.M.TotalRetired {
		t.Errorf("retired differ: %d vs %d", r1.M.TotalRetired, r2.M.TotalRetired)
	}
	if r1.M.Mem.Hash() != r2.M.Mem.Hash() {
		t.Error("memory images differ between identical runs")
	}
	if r1.M.ConsoleString() != r2.M.ConsoleString() {
		t.Error("console output differs")
	}
}

// TestAllScenariosBootSmoke is the wide net: every scenario must link.
// Execution of the full 130 matrix lives in the experiment harness; here we
// only verify a cheap subset end-to-end per ISA unless -short is off.
func TestAllScenariosLink(t *testing.T) {
	for _, sc := range Scenarios() {
		if _, _, err := BuildScenario(sc); err != nil {
			t.Errorf("%s: %v", sc.ID(), err)
		}
	}
}

func ExampleScenario_iD() {
	fmt.Println(Scenario{"IS", MPI, "armv7", 4}.ID())
	// Output: armv7/IS/MPI-4
}

func TestFTModesAgree(t *testing.T) { checkModesAgree(t, "FT", "armv8", 1) }
func TestBTModesAgree(t *testing.T) { checkModesAgree(t, "BT", "armv8", 1) }
func TestDCModesAgree(t *testing.T) { checkModesAgree(t, "DC", "armv8", 2) }
func TestUAModesAgree(t *testing.T) { checkModesAgree(t, "UA", "armv8", 2) }

// DT's butterfly graph depends on the rank count (as in the original
// benchmark), so different rank counts legitimately produce different
// checksums; each scenario must still be deterministic and productive.
func TestDTDeterministicPerRankCount(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		sc := Scenario{"DT", MPI, "armv8", cores}
		_, r1 := runScenario(t, sc)
		_, r2 := runScenario(t, sc)
		a, b := results(t, r1), results(t, r2)
		if a[0] != b[0] || a[1] != b[1] {
			t.Errorf("%s nondeterministic: %#x/%#x vs %#x/%#x", sc.ID(), a[0], a[1], b[0], b[1])
		}
		if a[0] == 0 {
			t.Errorf("%s produced empty checksum", sc.ID())
		}
	}
}

func TestUARefinesMesh(t *testing.T) {
	_, r := runScenario(t, Scenario{"UA", Serial, "armv8", 1})
	res := results(t, r)
	if res[1] <= 200 {
		t.Errorf("mesh did not grow: %d elements", res[1])
	}
}
