package fi

import (
	"context"
	"testing"

	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/npb"
)

// TestTerminalImageSharesCheckpointChain pins what keeps the final compare
// of a run restored from a checkpoint from scanning all of RAM: g.Final
// shares, by slice, every page the golden run did not access after the last
// checkpoint, and so does a machine restored from that checkpoint until it
// writes the page. g.Final is the golden machine's RAM byte for byte.
func TestTerminalImageSharesCheckpointChain(t *testing.T) {
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Final.EqualsMemory(g.Machine.Mem) {
		t.Fatal("Golden.Final differs from the golden machine's RAM")
	}
	cs, err := BuildCheckpointsOpt(context.Background(), img, cfg, g, CheckpointOptions{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	last := cs.snaps[len(cs.snaps)-1]

	// The pages of g.Final, as a memory restored from it holds them, and of a
	// machine restored from the last checkpoint.
	final := mem.New(g.Machine.Mem.Size())
	final.Restore(g.Final)
	m := mach.New(cfg)
	m.Restore(last)
	zero := &mem.New(mem.PageBytes).PageAt(0)[0] // the page every unwritten page is
	held := 0                                    // pages the pin checks that are not the zero page
	for pn, touch := range g.PageTouch {
		off := uint32(pn) * mem.PageBytes
		if touch > last.Retired() {
			continue
		}
		if &final.PageAt(off)[0] != zero {
			held++
		}
		if &m.Mem.PageAt(off)[0] != &final.PageAt(off)[0] {
			t.Errorf("page %#x: no access after the last checkpoint, yet the checkpoint and g.Final do not share it", off)
		}
	}
	if held == 0 {
		t.Error("no written page goes untouched after the last checkpoint: the pin checked nothing")
	}
}
