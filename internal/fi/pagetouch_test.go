package fi

import (
	"slices"
	"testing"

	"serfi/internal/fault"
	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/npb"
)

// TestPageTouchIsGoldenOnly pins who owns a page-touch table: the golden
// machine, and nobody else. The table is no part of mach.Snapshot, Restore
// or StateEquals — a golden machine is never restored — and every other
// machine (the checkpoint fast-forward machine, pooled and fresh injection
// machines) comes out of mach.New, which allocates none.
func TestPageTouchIsGoldenOnly(t *testing.T) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	pages := int(g.Machine.Mem.Size() / mem.PageBytes)
	if len(g.PageTouch) != pages || &g.PageTouch[0] != &g.Machine.PageTouch[0] {
		t.Fatalf("Golden.PageTouch has %d entries and must be the golden machine's table of %d pages", len(g.PageTouch), pages)
	}
	if last := slices.Max(g.PageTouch); last <= g.AppStart || last > g.Retired {
		t.Errorf("latest stamp %d outside (AppStart %d, Retired %d]", last, g.AppStart, g.Retired)
	}

	// A tracking machine's table survives Restore untouched and is invisible
	// to StateEquals; a restored machine without one gets none.
	m := mach.New(cfg)
	img.InstallTo(m)
	m.PageTouch = make([]uint64, pages)
	m.SetInstrBudget(g.AppStart)
	m.Run(0)
	snap, before := m.Snapshot(), slices.Clone(m.PageTouch)
	m.SetInstrBudget(g.AppStart + 100_000)
	m.Run(0)
	after := slices.Clone(m.PageTouch)
	if slices.Equal(before, after) {
		t.Fatal("100k application instructions stamped no page")
	}
	m.Restore(snap)
	if !slices.Equal(m.PageTouch, after) {
		t.Error("Restore rewrote the page-touch table")
	}
	if !snap.StateEquals(m) || !snap.StateEqualsExact(m) {
		t.Error("StateEquals compares the page-touch table")
	}
	plain := mach.New(cfg)
	plain.Restore(snap)
	if plain.PageTouch != nil || !snap.StateEquals(plain) {
		t.Error("a snapshot carried a page-touch table into a fresh machine")
	}

	// The machines an injection runs on.
	cs, err := BuildCheckpointsOpt(t.Context(), img, cfg, g, CheckpointOptions{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDomain(fault.Reg, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	cs.InjectPoint(d, g, Fault{Index: 7, Reg: 3, Bit: 5})
	if pooled := cs.pool.Get().(*mach.Machine); pooled.PageTouch != nil {
		t.Error("a pooled injection machine carries a page-touch table")
	}
}
