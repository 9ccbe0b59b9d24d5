package fi_test

import (
	"context"
	"math/rand"
	"testing"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
)

// regDomain builds the register fault domain of one scenario.
func regDomain(t testing.TB, img *cc.Image, cfg mach.Config, g *fi.Golden) fault.Domain {
	t.Helper()
	d, err := fi.NewDomain(fault.Reg, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkpoints builds an n-checkpoint delta-chain set.
func checkpoints(t testing.TB, img *cc.Image, cfg mach.Config, g *fi.Golden, n int) *fi.CheckpointSet {
	t.Helper()
	cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, fi.CheckpointOptions{N: n})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func golden(t *testing.T, sc npb.Scenario) (*fi.Golden, npb.Scenario) {
	t.Helper()
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = img
	return g, sc
}

func TestGoldenReference(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.AppStart == 0 || g.AppEnd <= g.AppStart {
		t.Errorf("lifespan window [%d, %d] broken", g.AppStart, g.AppEnd)
	}
	if g.Console == "" {
		t.Error("golden console empty")
	}
	if g.Stats.Retired == 0 || g.Cycles == 0 {
		t.Error("golden stats empty")
	}
	// Reproducibility: a second golden run matches bit for bit.
	g2, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both directions: g2's RAM tracks g2.Final (selective, nothing dirty)
	// and shares no chain with g.Final (every page compared).
	if !g.Final.EqualsMemory(g2.Machine.Mem) || !g2.Final.EqualsMemory(g2.Machine.Mem) ||
		g2.RegHash != g.RegHash || g2.Retired != g.Retired {
		t.Error("golden run not reproducible")
	}
}

func TestFaultListDeterministicAndInRange(t *testing.T) {
	sc := npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv7", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	feat := cfg.ISA.Feat()
	d := regDomain(t, img, cfg, g)
	a := fi.List(42, 200, d)
	b := fi.List(42, 200, d)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault list not deterministic at %d", i)
		}
		if a[i].Index >= g.AppEnd-g.AppStart {
			t.Errorf("fault %d outside lifespan", i)
		}
		if a[i].Reg >= feat.FaultTargets || a[i].Bit >= feat.WordBytes*8 {
			t.Errorf("fault %d target out of range: %+v", i, a[i])
		}
		if a[i].Core != 0 {
			t.Errorf("single-core scenario got core %d", a[i].Core)
		}
	}
	// v7: 16 registers x 32 bits; both register 15 (pc) and bit 31 must
	// eventually be drawn.
	r := rand.New(rand.NewSource(1))
	sawPC, sawHighBit := false, false
	for i := 0; i < 2000; i++ {
		f := d.Sample(r)
		if f.Reg == 15 {
			sawPC = true
		}
		if f.Bit == 31 {
			sawHighBit = true
		}
	}
	if !sawPC || !sawHighBit {
		t.Errorf("fault space not covered: pc=%v bit31=%v", sawPC, sawHighBit)
	}
}

func TestInjectOutcomesSane(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	faults := fi.List(7, 24, regDomain(t, img, cfg, g))
	var counts fi.Counts
	for _, f := range faults {
		r := fi.Inject(img, cfg, g, f)
		counts.Add(r.Outcome)
	}
	if counts.Total() != len(faults) {
		t.Fatalf("classified %d of %d", counts.Total(), len(faults))
	}
	// A uniform campaign over a real workload must produce at least some
	// masked faults (most bits are dead at any instant).
	if counts[fi.Vanished]+counts[fi.ONA] == 0 {
		t.Errorf("no masked faults at all: %v", counts)
	}
}

func TestInjectDeterministicReplay(t *testing.T) {
	sc := npb.Scenario{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := fi.Fault{Index: (g.AppEnd - g.AppStart) / 3, Core: 1, Reg: 5, Bit: 17}
	r1 := fi.Inject(img, cfg, g, f)
	r2 := fi.Inject(img, cfg, g, f)
	if r1.Outcome != r2.Outcome || r1.Retired != r2.Retired || r1.Cycles != r2.Cycles {
		t.Errorf("injection not replayable: %+v vs %+v", r1, r2)
	}
}

func TestPCFlipIsUsuallyFatalOnV7(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a high PC bit mid-run: the program lands in unmapped space.
	bad := 0
	for _, bit := range []int{20, 24, 26} {
		f := fi.Fault{Index: (g.AppEnd - g.AppStart) / 2, Core: 0, Reg: 15, Bit: bit}
		r := fi.Inject(img, cfg, g, f)
		if r.Outcome == fi.UT || r.Outcome == fi.Hang {
			bad++
		}
	}
	if bad == 0 {
		t.Error("high PC-bit flips never crashed or hung")
	}
}

func TestZeroBitFaultOnDeadRegisterVanishes(t *testing.T) {
	// Inject into a register the code never reads afterwards at the very
	// end of the lifespan: overwhelmingly Vanished/ONA.
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := fi.Fault{Index: g.AppEnd - g.AppStart - 2, Core: 0, Reg: 27, Bit: 3}
	r := fi.Inject(img, cfg, g, f)
	if r.Outcome == fi.UT || r.Outcome == fi.Hang || r.Outcome == fi.OMM {
		t.Errorf("late dead-register fault escalated to %v", r.Outcome)
	}
}

func TestMismatchMetric(t *testing.T) {
	var a, b fi.Counts
	for i := 0; i < 80; i++ {
		a.Add(fi.Vanished)
	}
	for i := 0; i < 20; i++ {
		a.Add(fi.UT)
	}
	for i := 0; i < 70; i++ {
		b.Add(fi.Vanished)
	}
	for i := 0; i < 30; i++ {
		b.Add(fi.UT)
	}
	if got := fi.Mismatch(a, b); got < 19.9 || got > 20.1 {
		t.Errorf("mismatch = %f, want 20", got)
	}
	if fi.Mismatch(a, a) != 0 {
		t.Error("self mismatch must be zero")
	}
}

func TestCountsHelpers(t *testing.T) {
	var c fi.Counts
	c.Add(fi.Vanished)
	c.Add(fi.Vanished)
	c.Add(fi.ONA)
	c.Add(fi.UT)
	if c.Total() != 4 {
		t.Errorf("total = %d", c.Total())
	}
	if m := c.Masking(); m < 0.74 || m > 0.76 {
		t.Errorf("masking = %f, want 0.75", m)
	}
}
