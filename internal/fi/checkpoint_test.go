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
			g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
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
				want := fromReset(t, img, cfg, g, d, f)
				got, _ := cs.InjectPointContext(context.Background(), d, g, f)
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

// TestCheckpointOptionsBitIdentical pins the two settings of
// CheckpointOptions at the fi layer: the same fault list injected through a
// set with checkpoints and through an empty one yields identical Results,
// and, run by run, the same from-reset cost; the empty set simulates all of it
// and prunes nothing, the checkpoints never more, and they retain RAM.
func TestCheckpointOptionsBitIdentical(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cow, empty := checkpoints(t, img, cfg, g, 6), checkpoints(t, img, cfg, g, 0)
	if cow.MemBytes() == 0 || empty.MemBytes() != 0 {
		t.Errorf("the checkpoints retain %d bytes, the empty set %d", cow.MemBytes(), empty.MemBytes())
	}

	d := regDomain(t, img, cfg, g)
	for i, f := range fi.List(17, 8, d) {
		// A clone per run counts that run alone.
		c, r := cow.Clone(), empty.Clone()
		want, _ := r.InjectPointContext(context.Background(), d, g, f)
		if got, _ := c.InjectPointContext(context.Background(), d, g, f); got != want {
			t.Errorf("fault %d (%s): cow %+v != from reset %+v", i, f, got, want)
		}
		rp, _ := r.PruneStats()
		cSim, cReset := c.SimulatedInstructions()
		rSim, rReset := r.SimulatedInstructions()
		if cReset != rReset || rSim != rReset || rp != 0 || cSim > rSim {
			t.Errorf("fault %d (%s): cow sim %d reset %d vs empty pruned %d sim %d reset %d", i, f, cSim, cReset, rp, rSim, rReset)
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
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
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
	// Zero checkpoints: valid, every injection runs from reset, and scores
	// as the checkpointed set does.
	empty := checkpoints(t, img, cfg, g, 0)
	f := fi.Fault{Index: 1, Core: 0, Reg: 2, Bit: 9}
	d := regDomain(t, img, cfg, g)
	got, _ := empty.InjectPointContext(context.Background(), d, g, f)
	if want, _ := cs.InjectPointContext(context.Background(), d, g, f); got != want {
		t.Errorf("empty-set inject %+v != checkpointed inject %+v", got, want)
	}
	if sim, reset := empty.SimulatedInstructions(); empty.Len() != 0 || sim != got.Retired || reset != got.Retired {
		t.Errorf("empty set of %d checkpoints simulated %d (from reset %d) of %d instructions", empty.Len(), sim, reset, got.Retired)
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
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
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
	if want := fromReset(t, img, cfg, g, d, f); got != want {
		t.Errorf("ctx inject %+v != from-reset inject %+v", got, want)
	}
	g2, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Retired != g.Retired || g2.Cycles != g.Cycles || !g.Final.EqualsMemory(g2.Machine.Mem) || !g2.Machine.RegFileEquals(g.Machine) {
		t.Errorf("ctx golden diverged: %+v vs %+v", g2, g)
	}
}
