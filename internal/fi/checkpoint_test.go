package fi_test

import (
	"context"
	"errors"
	"testing"

	"serfi/internal/fi"
	"serfi/internal/npb"
)

// TestCheckpointInjectMatchesReset is the engine's core correctness claim:
// for every fault, restoring from a pre-fault snapshot yields the exact
// Result (outcome, retired count, cycle count, exit status) of a from-reset
// run, on both a serial and a multicore OMP scenario.
func TestCheckpointInjectMatchesReset(t *testing.T) {
	for _, sc := range []npb.Scenario{
		{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2},
	} {
		t.Run(sc.ID(), func(t *testing.T) {
			img, cfg, err := npb.BuildScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			g, err := fi.RunGolden(img, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			cs := checkpoints(t, img, cfg, g, 6)
			if cs.Len() == 0 {
				t.Fatal("no checkpoints captured")
			}
			d := regDomain(t, img, cfg, g)
			faults := fi.List(11, 12, d)
			// Include the hardest edge: a fault at the first committed
			// instruction of the lifespan and at the last.
			faults = append(faults,
				fi.Fault{Index: 0, Core: 0, Reg: 3, Bit: 5},
				fi.Fault{Index: g.AppEnd - g.AppStart - 1, Core: 0, Reg: 3, Bit: 5})
			for i, f := range faults {
				want := fi.InjectDomain(img, cfg, g, d, f)
				got := cs.InjectPoint(d, g, f)
				if got != want {
					t.Errorf("fault %d (%s): snapshot run %+v != reset run %+v", i, f, got, want)
				}
			}
			exec, reset := cs.SimulatedInstructions()
			if exec == 0 || reset == 0 || exec >= reset {
				t.Errorf("no amortization: executed %d of %d from-reset instructions", exec, reset)
			}
		})
	}
}

// TestCheckpointOptionsBitIdentical pins the delta-checkpoint engine
// against its retained full-copy reference at the fi layer: the same fault
// list injected through a default (COW) set and a FullCopy set yields
// identical Results and, run by run, identical savings/prune telemetry —
// except on a run the dead-state rule stops, which the rule-free reference
// never takes — while the capture telemetry shows the delta chain actually
// paying pages instead of RAM images.
func TestCheckpointOptionsBitIdentical(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	build := func(opt fi.CheckpointOptions) *fi.CheckpointSet {
		opt.N = 6
		cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	cow := build(fi.CheckpointOptions{})
	full := build(fi.CheckpointOptions{FullCopy: true})

	// Capture telemetry: the delta chain holds a fraction of the full-copy
	// payload.
	if cow.MemBytes() >= full.MemBytes() {
		t.Errorf("delta chain (%d bytes) not smaller than full copies (%d bytes)", cow.MemBytes(), full.MemBytes())
	}
	if cow.MemBytes() == 0 {
		t.Error("delta chain retained no RAM")
	}

	d := regDomain(t, img, cfg, g)
	for i, f := range fi.List(17, 8, d) {
		// A clone per run counts that run alone.
		c, r := cow.Clone(), full.Clone()
		want := c.InjectPoint(d, g, f)
		if got := r.InjectPoint(d, g, f); got != want {
			t.Errorf("fault %d (%s): full-copy %+v != cow %+v", i, f, got, want)
		}
		cp, _ := c.PruneStats()
		rp, _ := r.PruneStats()
		cSim, cReset := c.SimulatedInstructions()
		rSim, rReset := r.SimulatedInstructions()
		// A dead-state run stops at a checkpoint where the reference does
		// not converge: it is pruned and simulates strictly less. Any
		// other run is the reference's, instruction for instruction.
		_, state := c.DeadRuns()
		if cReset != rReset || state == 0 && (cp != rp || cSim != rSim) || state == 1 && (cp != 1 || cSim >= rSim) {
			t.Errorf("fault %d (%s): cow pruned %d sim %d reset %d vs full pruned %d sim %d reset %d (%d dead-state runs)",
				i, f, cp, cSim, cReset, rp, rSim, rReset, state)
		}
	}
}

// TestBuildCheckpointsSpansLifespan checks placement: all snapshots sit
// strictly below the end of the lifespan, the first strictly below its start.
func TestBuildCheckpointsSpansLifespan(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := checkpoints(t, img, cfg, g, 4)
	if cs.Len() != 4 {
		t.Fatalf("checkpoints = %d, want 4", cs.Len())
	}
	if cs.MemBytes() == 0 {
		t.Error("checkpoints retained no RAM")
	}
	// Zero checkpoints: valid, every injection falls back to reset.
	empty := checkpoints(t, img, cfg, g, 0)
	f := fi.Fault{Index: 1, Core: 0, Reg: 2, Bit: 9}
	d := regDomain(t, img, cfg, g)
	if got, want := empty.InjectPoint(d, g, f), fi.InjectDomain(img, cfg, g, d, f); got != want {
		t.Errorf("empty-set inject %+v != reset %+v", got, want)
	}
}

// TestContextCancellation: every context-aware fi entry point returns
// ctx.Err() promptly when the context is already cancelled, and the
// Background-context wrappers stay bit-identical to the originals.
func TestContextCancellation(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := fi.RunGoldenContext(cancelled, img, cfg, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("RunGoldenContext err = %v, want context.Canceled", err)
	}
	if _, err := fi.BuildCheckpointsOpt(cancelled, img, cfg, g, fi.CheckpointOptions{N: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildCheckpointsOpt err = %v, want context.Canceled", err)
	}
	cs := checkpoints(t, img, cfg, g, 4)
	d := regDomain(t, img, cfg, g)
	f := fi.Fault{Index: 7, Core: 0, Reg: 2, Bit: 3}
	if _, err := cs.InjectPointContext(cancelled, d, g, f); !errors.Is(err, context.Canceled) {
		t.Errorf("InjectPointContext err = %v, want context.Canceled", err)
	}
	// An aborted run never counts toward the set's telemetry.
	if _, total := cs.PruneStats(); total != 0 {
		t.Errorf("aborted run counted: total = %d", total)
	}

	// The live-context path is the plain path, bit for bit.
	got, err := cs.InjectPointContext(context.Background(), d, g, f)
	if err != nil {
		t.Fatal(err)
	}
	if want := fi.InjectDomain(img, cfg, g, d, f); got != want {
		t.Errorf("ctx inject %+v != legacy inject %+v", got, want)
	}
	g2, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Retired != g.Retired || g2.Cycles != g.Cycles || !g.Final.EqualsMemory(g2.Machine.Mem) || !g2.Machine.RegFileEquals(g.Machine) {
		t.Errorf("ctx golden diverged: %+v vs %+v", g2, g)
	}
}
