package fi

import (
	"context"
	"slices"
	"testing"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/mach"
	"serfi/internal/npb"
)

// profiledGolden runs the golden pass the way campaign.BuildGroup does — on
// a profiling machine — and returns the unprofiled configuration injection
// machines are built from beside it.
func profiledGolden(t *testing.T, sc npb.Scenario) (*cc.Image, mach.Config, *Golden) {
	t.Helper()
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := cfg
	gcfg.Profile = true
	gcfg.SamplePeriod = 97
	g, err := RunGolden(img, gcfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return img, cfg, g
}

// fromReset scores p through an empty set: the rule-free reference, from
// reset.
func fromReset(t *testing.T, img *cc.Image, cfg mach.Config, g *Golden, d fault.Domain, p Fault) Result {
	t.Helper()
	cs, err := BuildCheckpointsOpt(t.Context(), img, cfg, g, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cs.InjectPoint(d, g, p)
}

// positions returns the retired-instruction index of every checkpoint.
func positions(cs *CheckpointSet) []uint64 {
	var out []uint64
	for _, s := range cs.snaps {
		out = append(out, s.Retired())
	}
	return out
}

// checkPlacement holds a set to the placement contract: at most n
// checkpoints, ascending, the first before the lifespan opens (so every
// fault index has one strictly below it) and the last before it closes.
func checkPlacement(t *testing.T, cs *CheckpointSet, g *Golden, n int) {
	t.Helper()
	pos := positions(cs)
	if len(pos) == 0 || len(pos) > n {
		t.Fatalf("N=%d: %d checkpoints", n, len(pos))
	}
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			t.Errorf("N=%d: positions not ascending: %v", n, pos)
		}
	}
	if pos[0] >= g.AppStart || pos[len(pos)-1] >= g.AppEnd {
		t.Errorf("N=%d: positions %v outside [0, AppStart=%d) .. [.., AppEnd=%d)", n, pos, g.AppStart, g.AppEnd)
	}
}

// checkMatchesFastForward is the fused pass's correctness claim: every
// checkpoint the profiled golden run captured in passing equals, bit for bit
// (cache hierarchy included), a fresh unprofiled machine fast-forwarded from
// reset to the same instruction — and restoring it hands a machine no
// profile tables to fill.
func checkMatchesFastForward(t *testing.T, img *cc.Image, cfg mach.Config, g *Golden, cs *CheckpointSet) {
	t.Helper()
	ref := mach.New(cfg)
	img.InstallTo(ref)
	pcfg := cfg
	pcfg.Profile = true
	restored := mach.New(pcfg)
	for i, s := range cs.snaps {
		if s.Retired() > 0 {
			ref.SetInstrBudget(s.Retired())
			if stop := ref.Run(HangBudget(g.Cycles)); stop != mach.StopInstrBudget {
				t.Fatalf("checkpoint %d: reference stopped with %v at %d", i, stop, ref.TotalRetired)
			}
		}
		if !s.StateEqualsExact(ref) {
			t.Errorf("checkpoint %d at %d differs from an unprofiled fast-forward", i, s.Retired())
		}
		restored.Restore(s)
		if restored.CallCounts != nil || restored.Samples != nil {
			t.Errorf("checkpoint %d carries profile tables", i)
		}
	}
}

func TestGoldenCheckpointsMatchFastForward(t *testing.T) {
	for _, isa := range []string{"armv7", "armv8"} {
		for _, sc := range []npb.Scenario{
			{App: "IS", Mode: npb.Serial, ISA: isa, Cores: 1},
			{App: "IS", Mode: npb.OMP, ISA: isa, Cores: 2},
			{App: "IS", Mode: npb.MPI, ISA: isa, Cores: 2},
		} {
			t.Run(sc.ID(), func(t *testing.T) {
				img, cfg, g := profiledGolden(t, sc)
				cs, err := BuildCheckpointsOpt(context.Background(), img, cfg, g, CheckpointOptions{N: DefaultCheckpoints})
				if err != nil {
					t.Fatal(err)
				}
				checkPlacement(t, cs, g, DefaultCheckpoints)
				checkMatchesFastForward(t, img, cfg, g, cs)
			})
		}
	}
}

// TestCheckpointPlacement: selection is a pure function of the Golden. Sets
// of different sizes built from one golden run each satisfy the placement
// contract, each equal the fast-forward reference and inject like a run from
// reset; a second, independent golden run places identically; and the candidates never outnumber their
// cap, whatever the run's length.
func TestCheckpointPlacement(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.OMP, ISA: "armv8", Cores: 2}
	img, cfg, g := profiledGolden(t, sc)
	if n := len(g.candidates); n <= candidateCap/2 || n > candidateCap || g.candidates[0].Retired() != 0 {
		t.Fatalf("%d candidates (cap %d), first at %d", n, candidateCap, g.candidates[0].Retired())
	}
	_, _, g2 := profiledGolden(t, sc)
	d, err := NewDomain(fault.Reg, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	faults := List(23, 4, d)
	faults = append(faults, Fault{Index: 0, Reg: 3, Bit: 5}) // the first instruction of the lifespan
	for _, n := range []int{4, DefaultCheckpoints, 4 * candidateCap} {
		build := func(g *Golden, opt CheckpointOptions) *CheckpointSet {
			opt.N = n
			cs, err := BuildCheckpointsOpt(context.Background(), img, cfg, g, opt)
			if err != nil {
				t.Fatal(err)
			}
			return cs
		}
		cs := build(g, CheckpointOptions{})
		checkPlacement(t, cs, g, n)
		checkMatchesFastForward(t, img, cfg, g, cs)
		for _, f := range faults {
			if got, want := cs.InjectPoint(d, g, f), fromReset(t, img, cfg, g, d, f); got != want {
				t.Errorf("N=%d fault %s: %+v, from reset %+v", n, f, got, want)
			}
		}
		if _, total := cs.PruneStats(); total != uint64(len(faults)) {
			t.Errorf("N=%d: %d runs counted, want %d", n, total, len(faults))
		}
		for name, other := range map[string]*CheckpointSet{
			"independent golden run":    build(g2, CheckpointOptions{}),
			"second call on one Golden": build(g, CheckpointOptions{}),
		} {
			if got, want := positions(other), positions(cs); !slices.Equal(got, want) {
				t.Errorf("N=%d: %s sits at %v, want %v", n, name, got, want)
			}
		}
	}

	g.ReleaseCandidates()
	if _, err := BuildCheckpointsOpt(context.Background(), img, cfg, g, CheckpointOptions{N: 4}); err == nil {
		t.Error("a released Golden still built checkpoints")
	}
	if cs, err := BuildCheckpointsOpt(context.Background(), img, cfg, g, CheckpointOptions{}); err != nil || cs.Len() != 0 {
		t.Errorf("released Golden, N=0: %v, %v; want the empty set", cs, err)
	}
}
