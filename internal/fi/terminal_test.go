package fi

import (
	"context"
	"testing"

	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/npb"
)

func chainRoot(s *mem.Snapshot) *mem.Snapshot {
	for s.Parent() != nil {
		s = s.Parent()
	}
	return s
}

// TestTerminalImageSharesCheckpointChain pins which branch of
// mem.Snapshot.EqualsMemory each injection path classifies through. On a
// delta-chain set the terminal image is the chain's tip, so a machine
// restored from any checkpoint tracks a snapshot on its chain and the final
// compare is selective (dirty pages plus chain paths — no O(RAM) scan on the
// pooled path). FullCopy sets, empty sets, from-reset machines and tracer
// twins share no chain with the image they are compared against and take
// the full exact branch.
func TestTerminalImageSharesCheckpointChain(t *testing.T) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunGolden(img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Final == nil || g.Final.Parent() != nil || g.Machine.Mem.Base() != g.Final {
		t.Fatal("Golden.Final must be a full capture the retained machine tracks")
	}
	build := func(opt CheckpointOptions) *CheckpointSet {
		cs, err := BuildCheckpointsOpt(context.Background(), img, cfg, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	mid := g.AppStart + (g.AppEnd-g.AppStart)/2

	cs := build(CheckpointOptions{N: 6})
	if cs.final == nil || cs.final.Parent() != cs.snaps[len(cs.snaps)-1].Mem() {
		t.Fatal("terminal image is not chained after the last checkpoint")
	}
	root := chainRoot(cs.final)
	for i, s := range cs.snaps {
		if chainRoot(s.Mem()) != root {
			t.Errorf("checkpoint %d does not share the terminal image's chain root", i)
		}
	}
	// The chained delta is the golden run's terminal RAM, byte for byte, and
	// costs pages, not a RAM image.
	if !cs.final.EqualsMemory(g.Machine.Mem) {
		t.Error("chained terminal image differs from the golden machine's RAM")
	}
	if cs.final.Bytes() >= g.Final.Bytes() {
		t.Errorf("terminal delta holds %d bytes, the full image %d", cs.final.Bytes(), g.Final.Bytes())
	}
	if cs.Clone().final != cs.final {
		t.Error("Clone lost the chained terminal image")
	}
	// A pooled machine is exactly a machine some checkpoint was restored
	// into: its tracking base sits on the terminal image's chain.
	m := mach.New(cfg)
	if !cs.RestoreNearest(m, mid) {
		t.Fatal("no checkpoint below mid-lifespan")
	}
	if b := m.Mem.Base(); b == nil || chainRoot(b) != root {
		t.Error("restored machine does not track the terminal image's chain: classify would scan all of RAM")
	}

	// Full exact branch: no chain shared with the image compared against.
	full := build(CheckpointOptions{N: 6, FullCopy: true})
	if full.final != nil || build(CheckpointOptions{}).final != nil {
		t.Error("FullCopy and empty sets must classify against Golden.Final")
	}
	if !full.RestoreNearest(m, mid) {
		t.Fatal("no full-copy checkpoint below mid-lifespan")
	}
	if b := m.Mem.Base(); b == nil || chainRoot(b) == chainRoot(g.Final) {
		t.Error("full-copy restore must not share a chain with Golden.Final")
	}
	fresh := mach.New(cfg)
	img.InstallTo(fresh)
	if fresh.Mem.Base() != nil {
		t.Error("from-reset machine has a tracking base")
	}
	cs.RestoreNearest(m, mid)
	m.Mem.TakeDirtyPages() // what prop.Tracer does to its twins
	if m.Mem.Base() != nil {
		t.Error("tracer twin kept a tracking base after TakeDirtyPages")
	}
}
