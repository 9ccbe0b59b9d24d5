package fi

import (
	"context"
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
	g, err := RunGoldenContext(context.Background(), img, cfg, 0)
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
	cs.InjectPointContext(context.Background(), d, g, Fault{Index: 7, Reg: 3, Bit: 5})
	if pooled := cs.pool.Get().(*mach.Machine); pooled.PageTouch != nil {
		t.Error("a pooled injection machine carries a page-touch table")
	}
}

// TestLivenessIsGoldenOnly pins who owns the liveness record and the
// cache-set stamps, as TestPageTouchIsGoldenOnly does for the page-touch
// table: the golden machine keeps both, its checkpoint candidates carry
// liveness marks, and the machines an injection runs on — pooled, fresh,
// from reset and restored ones — keep neither and restore no mark into a
// record.
func TestLivenessIsGoldenOnly(t *testing.T) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Machine.Liveness() == nil || g.Machine.Hier.SetStamps() == nil {
		t.Fatal("the golden machine keeps no liveness record or no set stamps")
	}
	for i, c := range g.candidates {
		if c.Live() == nil {
			t.Fatalf("checkpoint candidate %d (retired %d) carries no liveness mark", i, c.Retired())
		}
	}
	cs, err := BuildCheckpointsOpt(t.Context(), img, cfg, g, CheckpointOptions{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range cs.snaps {
		if s.Live() == nil {
			t.Errorf("checkpoint %d of the set lost its candidate's mark", i)
		}
	}
	d, err := NewDomain(fault.Reg, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	p := Fault{Index: 7, Reg: 3, Bit: 5}
	cs.InjectPointContext(context.Background(), d, g, p)
	if pooled := cs.pool.Get().(*mach.Machine); pooled.Liveness() != nil || pooled.Hier.SetStamps() != nil {
		t.Error("a pooled injection machine keeps a liveness record or set stamps")
	}
	restored := mach.New(cfg)
	restored.Restore(cs.snaps[len(cs.snaps)-1])
	if restored.Liveness() != nil || restored.Hier.SetStamps() != nil {
		t.Error("Restore carried a liveness record or set stamps into a machine")
	}
	m := mach.New(cfg)
	img.InstallTo(m)
	if m.Liveness() != nil || m.Hier.SetStamps() != nil {
		t.Error("a fresh machine keeps a liveness record or set stamps")
	}
	got, _ := cs.InjectPointContext(context.Background(), d, g, p)
	if want := fromReset(t, img, cfg, g, d, p); got != want {
		t.Errorf("%s: product path %+v != from reset %+v", p, got, want)
	}
}
